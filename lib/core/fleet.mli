(** The campaign state machine: one campaign, N replicas, staged rollout.

    This is the only controller. The paper's daemon reruns one cycle —
    profile, perf2bolt, BOLT, replace, then watch for drift (Sections IV-C
    and V) — and a single-process campaign is that cycle over a one-replica
    fleet, [create [| proc |]]; {!Daemon} supplies only the gate policy
    ([config.daemon], {!Daemon.decide}). The paper's deployments run
    thousands of identical replicas behind a load balancer; a fleet
    campaign manages N replicas of the same binary through a single
    optimization cycle:

    + {b profile} every replica, decimating each of the N streams to every
      N-th sample batch (fraction 1/N, phase = replica id) and aggregating
      the union through one {!Ocolos_profiler.Perf2bolt.convert_sources}
      call — fleet-wide
      coverage at a fraction of the per-replica sampling cost (the Fig. 6
      knee, spread across the fleet);
    + {b BOLT once} on the shared layout (all replicas committed identical
      histories, so their live binaries are identical);
    + {b roll out in stages}: replace on a canary subset (first
      [ceil (canary_fraction * N)] replicas), soak for [verify_s], then
      take a cohort-level A/B verdict ({!judge} over a {!readout}): the
      canary cohort's verify-window aggregates (IPC normalized against its
      own profiling baseline, p99 via the latency probe, and the MPKI set)
      are compared against the rest-of-fleet cohort measured over the same
      soak, and only a clean readout widens the rollout to the rest.

    A replica whose transactional replacement rolls back is retried with
    the same BOLT result after [Guard.jittered (retry_backoff_s *. 2 **
    (attempt - 1))], up to [max_retries] extra attempts ([config.daemon]);
    each retry that runs counts in [ocolos_fleet_retries_total] and logs a
    [fleet.retry] event. A canary regression, a shadow divergence, or a
    replica whose retry budget is spent triggers a staged rollback: every
    replica already on C_{i+1} is {!Ocolos.revert}ed to C_i (the revert
    path has no fault cuts, so a partial rollout always unwinds
    completely), and the shared {!Guard} hears a failed campaign, feeding
    its circuit breaker. The
    invariant the property suite locks in: a rollout terminates with every
    replica on C_{i+1} or every replica on C_i — never permanently mixed.

    A daemon death mid-rollout ({!Ocolos_util.Fault.Killed} escaping
    {!tick}) can strand a mixed fleet; {!reattach} recovers it by
    reconstructing each replica's controller from the target and, when the
    fleet disagrees on its layout, reverting every optimized replica to C0
    (always possible — design principle #1 keeps C0 resident) so a fresh
    homogeneous campaign can run.

    A one-replica fleet has no rest-of-fleet cohort, so its canary soaks
    for [verify_s] and is judged against its own profiling baseline before
    [Promoted].

    Observability: fleet-level events are [fleet.*] trace marks and
    [ocolos_fleet_*] metrics (gauges labelled [replica="i"]), strictly
    additive over what the per-replica pipeline already emits — a
    one-replica fleet is byte-identical to the direct single-process
    pipeline ({!Ocolos.start_profiling} through {!Txn.replace_code}) apart
    from those families. *)

type config = {
  canary_fraction : float;  (** fraction of replicas in the canary stage *)
  verify_s : float;  (** canary soak time before the verdict *)
  max_ipc_drop : float;
      (** guard threshold: breach when the canary cohort's IPC ratio
          (verify / baseline) falls below [(1 - max_ipc_drop)] times the
          rest cohort's ratio (or, with no rest cohort, when its verify IPC
          falls that far below its own baseline) *)
  max_p99_rise : float;
      (** guard threshold on the latency probe, symmetric with
          [max_ipc_drop] on the rising side *)
  canary_ipc_scale : float;
      (** scale applied to measured canary IPC at the verdict; [< 1.0]
          injects a synthetic regression (CLI [--inject-regression] and the
          rollback tests) *)
  latency_probe : (int -> float) option;
      (** current p99 (simulated seconds) per replica id, wired by the
          driver that owns the traffic model *)
  daemon : Daemon.config;
      (** gate policy: monitoring gate ({!Daemon.decide}), profile window,
          warmup, per-replica retry budget and backoff, shadow sampling *)
}

val default_config : config

(** One rollout cohort's verify-window aggregate: counters summed across
    the cohort's replicas before rates are derived. *)
type cohort = {
  co_ids : int list;
  co_ipc : float;  (** aggregate verify-window IPC (canary: scale applied) *)
  co_base_ipc : float;  (** aggregate profiling-window IPC *)
  co_ipc_ratio : float;  (** [co_ipc / co_base_ipc]; 0 without a baseline *)
  co_p99 : float;  (** mean latency-probe reading; 0 without a probe *)
  co_base_p99 : float;  (** mean probe reading at canary start *)
  co_l1i_mpki : float;
  co_itlb_mpki : float;
  co_btb_mpki : float;
  co_taken_pki : float;
}

(** The A/B readout a canary verdict is taken from, exported as
    [ocolos_fleet_cohort_*{cohort="canary"|"rest"}] gauges and a
    [fleet.verify_readout] structured event. *)
type readout = {
  ro_version : int;  (** candidate version under verification *)
  ro_canary : cohort;
  ro_rest : cohort option;  (** [None] when every replica is a canary *)
  ro_breach : (string * string) option;  (** breached signal name, detail *)
}

(** Build a cohort from pre-summed counter aggregates ([baseline] the
    summed profiling-window intervals, [verify] the summed verify-window
    intervals). Pure; exposed so tests can hand-compute expected
    readouts. *)
val cohort_of :
  ids:int list -> baseline:Ocolos_uarch.Counters.t -> verify:Ocolos_uarch.Counters.t ->
  ?ipc_scale:float -> p99:float -> base_p99:float -> unit -> cohort

(** The promotion verdict: [None] promotes, [Some (signal, detail)] rolls
    back. Each cohort is normalized against its own profiling baseline
    (difference-in-differences), so heterogeneous per-replica inputs don't
    skew the comparison; with no rest cohort the canary is judged against
    its own baseline alone. Pure. *)
val judge : config -> canary:cohort -> rest:cohort option -> (string * string) option

type t

(** Attach a fleet controller to [replicas] (one {!Ocolos.attach} each).
    All replicas must run the same binary. The [guard] is shared across the
    fleet: one breaker, one quarantine. Raises [Invalid_argument] on an
    empty fleet. *)
val create :
  ?config:config -> ?ocolos_config:Ocolos.config -> ?guard:Guard.t ->
  Ocolos_proc.Proc.t array -> t

(** Stand the fleet controller back up over live replicas after a daemon
    death ({!Ocolos.reattach} each). If the fleet is layout-mixed — a
    rollout died between replicas — every optimized replica is reverted to
    C0 so the fleet restarts homogeneous; {!reverted_on_reattach} reports
    which. *)
val reattach :
  ?config:config -> ?ocolos_config:Ocolos.config -> ?guard:Guard.t ->
  Ocolos_proc.Proc.t array -> t

type action =
  | Idle
  | Started_profiling of string  (** gate reason *)
  | Canary_started of { version : int; canaries : int list }
  | Promoted of { version : int; replicas : int }
      (** rollout complete: every replica on the new version *)
  | Rolled_back of { reason : string; reverted : int list }
      (** staged rollback: every listed replica reverted to C_i *)
  | Campaign_aborted of string
      (** pipeline fault or watchdog before any replica was touched *)
  | Breaker_open of { until_s : float }

val action_to_string : action -> string

(** One controller tick at simulated time [now_s]; the caller advances the
    replicas between ticks. A tick that rolls a replica back with retry
    budget left, or that is still inside the backoff, is [Idle].
    {!Ocolos_util.Fault.Killed} escapes (the daemon dying), possibly
    leaving a mixed fleet for {!reattach}. *)
val tick : t -> now_s:float -> action

val replicas : t -> int
val ocolos : t -> int -> Ocolos.t
val procs : t -> Ocolos_proc.Proc.t array
val guard : t -> Guard.t

(** Per-replica code versions, in replica order. *)
val versions : t -> int list

(** All replicas on the same version? *)
val converged : t -> bool

val mixed : t -> bool

(** No campaign in flight: not profiling, soaking a canary, or backing off
    before a replica's retry. *)
val monitoring : t -> bool

(** Completed fleet-wide rollouts / staged rollbacks. *)
val rollouts : t -> int

val rollbacks : t -> int

(** Replicas reverted to C0 by {!reattach}'s mixed-fleet recovery. *)
val reverted_on_reattach : t -> int list

(** The most recent canary verdict's A/B readout (promoted or rolled
    back), for post-mortems — the CLI [explain] subcommand reads it. *)
val last_readout : t -> readout option

(** Modeled stop-the-world seconds accrued by replica [i]'s replacements
    and reverts since the last call, then cleared — the driver that owns
    the clock charges them as {!Ocolos_proc.Proc.stall_all} stalls so
    pauses surface in open-loop latency. *)
val take_pause_debt : t -> int -> float
