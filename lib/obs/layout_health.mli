(** Layout-health attribution: microarchitectural rates per code version.

    OCOLOS judges each code layout C_0, C_1, … by front-end evidence —
    L1i MPKI, iTLB MPKI, BTB MPKI, taken-branch PKI, and IPC. This module
    accumulates raw event counts into per-version (and per-function)
    windows as drivers report them on the simulated clock, and turns the
    aggregates into rate tables, C_i → C_{i+1} delta tables, ranked
    per-function regressions, and labelled gauges in the ambient metrics
    registry.

    The module is deliberately ignorant of the uarch layer (the obs
    library sits below it): callers convert their counters into the
    neutral {!sample} / {!func_counts} records
    ([Ocolos_uarch.Counters.to_health_sample] does this for TopDown
    counter intervals). Per-function rates are {e contribution}
    attributions: a function's events per kilo-instruction of the whole
    version window, not of the function's own instructions — the shape of
    attribution a sampled LBR profile supports.

    Unlike the other obs sinks, an accumulator is never ambient: the one
    producer ([Ocolos_sim.Fleet_driver.run ~health]) takes it as an
    argument, so per-tick recording costs nothing unless a caller — the
    CLI [explain] subcommand — passes one. *)

(** Raw counts for one recording window, all from the same code version. *)
type sample = {
  s_instructions : int;
  s_cycles : float;
  s_l1i_misses : int;
  s_itlb_misses : int;
  s_btb_misses : int;
  s_taken_branches : int;
}

(** Raw front-end event counts attributed to one function in a window. *)
type func_counts = {
  fc_l1i : int;
  fc_itlb : int;
  fc_btb : int;
  fc_taken : int;
}

(** Aggregated rates for one code version. *)
type rates = {
  r_windows : int;
  r_instructions : int;
  r_ipc : float;
  r_l1i_mpki : float;
  r_itlb_mpki : float;
  r_btb_mpki : float;
  r_taken_pki : float;
}

type signal = Ipc | L1i_mpki | Itlb_mpki | Btb_mpki | Taken_pki

val signals : signal list

(** ["ipc"], ["l1i_mpki"], … — stable names used in reports and events. *)
val signal_name : signal -> string

val signal_value : rates -> signal -> float

(** Per-function delta between two versions; each field is the function's
    contribution (events per kilo-instruction of the version window) in
    the newer version minus the older one. [fd_total] sums the four. *)
type func_delta = {
  fd_fid : int;
  fd_name : string;
  fd_l1i : float;
  fd_itlb : float;
  fd_btb : float;
  fd_taken : float;
  fd_total : float;
}

type t

val create : unit -> t

(** Fold one window's counts into version [version]'s aggregate (and, when
    [replica] is given, into the per-replica breakdown). *)
val record_window : t -> ?replica:int -> version:int -> sample -> unit

(** Fold one window's per-function counts into ([version], [fid]). *)
val record_func_window : t -> version:int -> fid:int -> name:string -> func_counts -> unit

(** Versions with at least one recorded window, ascending. *)
val versions : t -> int list

val rates : t -> int -> rates option

(** Replicas seen via [record_window ~replica], ascending. *)
val replicas : t -> int list

val replica_rates : t -> replica:int -> version:int -> rates option

(** Functions recorded under [version] with their contribution deltas
    against a zero baseline — i.e. their absolute contributions. *)
val func_rows : t -> version:int -> func_delta list

(** Per-function contribution deltas from [from_version] to [to_version],
    sorted worst regression first (largest [fd_total]). Functions seen in
    either version appear. *)
val regressions : t -> from_version:int -> to_version:int -> func_delta list

(** Export per-version gauges ([ocolos_layout_ipc{version="1"}], the MPKI
    set, window/instruction totals) and per-function contribution gauges
    ([ocolos_layout_func_l1i_pki{function="f";version="1"}]) into the
    ambient metrics registry. *)
val export_metrics : t -> unit

(** Human-readable per-version rate table. *)
val report : t -> string

(** Signal-by-signal C_from vs C_to table with deltas. *)
val delta_table : t -> from_version:int -> to_version:int -> string
