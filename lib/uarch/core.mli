(** Per-core front-end timing model.

    The interpreter reports fetch, branch, memory and transaction events;
    this module charges cycles and attributes them to TopDown categories.
    Each simulated thread owns one core. *)

type t

(** Front-end events attributable to a code address. [Btb_miss] mirrors
    {!Btb.misses} (cold/capacity misses only, not wrong-target hits), so
    per-address attributions sum to the corresponding {!Counters} fields. *)
type fe_event = L1i_miss | Itlb_miss | Btb_miss | Taken_branch

val create : ?cfg:Config.t -> unit -> t

(** Install an observer for L1i miss addresses (the perf-annotate analog);
    [None] removes it. *)
val set_l1i_miss_observer : t -> (int -> unit) option -> unit

(** Install an observer for front-end events ([f event code_addr]); [None]
    removes it. Fired only on miss/taken slow paths, never on the fetch
    fast path, so an installed observer costs nothing per instruction. *)
val set_fe_observer : t -> (fe_event -> int -> unit) option -> unit

(** Total cycles so far (base + front-end + bad-speculation + back-end). *)
val cycles : t -> float

(** [cycles_below t limit] is [cycles t < limit], without a float result:
    the engines ask it before every instruction, and a float returned
    across a module boundary is boxed wherever the call is not inlined. *)
val cycles_below : t -> float -> bool

(** Per-instruction fetch accounting (L1i, iTLB, issue slots). *)
val fetch : t -> addr:int -> size:int -> unit

(** Conditional branch outcome at [pc]; charges direction prediction and, if
    taken, the taken-transfer costs (bubble, BTB). *)
val on_cond_branch : t -> pc:int -> taken:bool -> target:int -> unit

(** Unconditional direct jump. *)
val on_jump : t -> pc:int -> target:int -> unit

(** Indirect jump (jump table): BTB target prediction; wrong target
    flushes. *)
val on_indirect_jump : t -> pc:int -> target:int -> unit

(** Direct or indirect call; pushes the return-address stack. *)
val on_call : t -> pc:int -> target:int -> return_addr:int -> indirect:bool -> unit

(** Return; checked against the return-address stack. *)
val on_ret : t -> pc:int -> target:int -> unit

(** Data-memory access (load or store). *)
val on_mem : t -> addr:int -> unit

(** Transaction-complete marker. *)
val on_tx : t -> unit

(** Inject externally-caused stall cycles into a TopDown bucket (scheduler
    pauses, profiling overhead). *)
val stall : t -> cycles:float -> category:[ `Frontend | `Backend | `BadSpec ] -> unit

val snapshot : t -> Counters.t
