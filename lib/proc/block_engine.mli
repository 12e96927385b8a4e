(** Decoded basic-block execution engine.

    Predecodes straight-line instruction runs into flat arrays
    ({!Ocolos_isa.Predecode.block}) and executes a whole block per dispatch;
    a dispatch follows the previous block's chain (the block that followed
    it last time) before it probes the block table.
    The per-instruction semantics live in {!execute}, which the reference
    interpreter ({!Proc.step}) shares, so both engines produce bit-identical
    uarch counters, LBR samples and taken-branch traces.

    Cached blocks are invalidated precisely by code-map writes: {!create}
    installs the engine as the address space's code watcher, which covers
    single writes, whole runs of writes or removals (one span each), and
    every slot the restore of a rolled-back transaction changes.

    Invariant: the per-instruction and per-taken-branch paths allocate
    nothing (no closure, option, boxed float or polymorphic compare), so a
    warmed process allocates only per block-table miss, per scheduler
    round and per PMI. The [block_engine] tests gate this in minor words
    per retired instruction. *)

open Ocolos_isa

type branch_kind = Cond | Jump | IndJump | DirectCall | IndCall | Return

type hooks = {
  mutable on_taken_branch :
    (tid:int -> from_addr:int -> to_addr:int -> kind:branch_kind -> unit)
    option;
      (** fired after every taken control transfer, once its costs are
          charged to the thread's core. Clock-free: an observer that needs
          the time reads the core, so the hot path boxes no [float] per
          branch. *)
  mutable translate_fp : (int -> int) option;
      (** the wrapFuncPtrCreation callback: rewrites values materialized by
          [FpCreate] *)
}

exception Fault of string

(** Mark [thread] faulted and raise {!Fault} with the canonical unmapped-fetch
    message. *)
val fault_unmapped : Thread.t -> pc:int -> 'a

(** Execute exactly one already-fetched instruction: charge the fetch, retire
    it, then run its semantics (memory events, branch events, hooks) in the
    reference order. [size] must be [Instr.size instr]. *)
val execute : Addr_space.t -> hooks -> Thread.t -> pc:int -> size:int -> Instr.t -> unit

type stats = {
  decodes : int;  (** blocks decoded (cache misses) *)
  dispatches : int;  (** block dispatches *)
  invalidations : int;  (** cached blocks dropped by code writes *)
  resident : int;  (** blocks currently cached *)
}

type t

(** Create an engine over [mem] and install it as [mem]'s code watcher.
    [nthreads] sizes the per-thread dispatch memo. *)
val create : nthreads:int -> Addr_space.t -> t

(** The [`Blocks] per-turn executor of {!Proc.run}'s scheduler: run
    [thread] for at most [max_steps] instructions, stopping early when it
    halts/faults or its core reaches [cycle_limit]; the same conditions the
    reference turn checks, re-checked before every instruction. Returns the
    number of instructions executed. Raises {!Fault} on an unmapped
    fetch. *)
val exec : t -> hooks -> Thread.t -> max_steps:int -> cycle_limit:float -> int

val stats : t -> stats

(** Are all cached blocks still coherent with the code map? Always true
    unless the invalidation feed missed a write. *)
val validate : t -> bool

(** Every code address the engine holds a live reference to, as
    (label, address) pairs: cached block starts ("block") and per-thread
    resume memos ("block_memo"/"block_resume"). OCOLOS's post-GC
    reachability scanner audits these against freed code. *)
val code_pointers : t -> (string * int) list

(** OCOLOS migrated paused threads' PCs to another code version: drop the
    per-thread resume memos, which describe where the threads were. *)
val on_threads_migrated : t -> unit
