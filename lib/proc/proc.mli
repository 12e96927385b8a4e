(** A simulated process: an address space plus threads, an interpreter and a
    round-robin scheduler.

    External controllers (the profiler, OCOLOS) interact with the process
    the way perf and ptrace do with a real one: a taken-branch hook observes
    control flow (the LBR analog), pause/resume stops all threads at an
    instruction boundary, and the address space and per-thread
    register/stack state are inspectable and patchable while paused. *)

type branch_kind = Cond | Jump | IndJump | DirectCall | IndCall | Return

type hooks = {
  mutable on_taken_branch :
    (tid:int -> from_addr:int -> to_addr:int -> kind:branch_kind -> cycles:float -> unit)
    option;
  mutable translate_fp : (int -> int) option;
      (** the wrapFuncPtrCreation callback: rewrites values materialized by
          [FpCreate] (paper Section IV-C2) *)
}

type t = {
  mem : Addr_space.t;
  threads : Thread.t array;
  binary : Ocolos_binary.Binary.t;
  hooks : hooks;
  mutable instret : int;
  mutable paused : bool;
  mutable block_engine : Block_engine.t option;
      (** decoded-block cache, created lazily on the first [`Blocks] run *)
}

(** Launch a process from a binary image with [nthreads] worker threads, all
    starting at the binary entry point with distinct PRNG seeds. *)
val load :
  ?nthreads:int -> ?cfg:Ocolos_uarch.Config.t -> ?seed:int -> Ocolos_binary.Binary.t -> t

(** Independent deep copy of the whole process (address space, threads,
    register/stack/PRNG state) — the shadow checker's substrate. The clone
    shares no mutable state with the source; its hooks start empty, its
    block cache cold, and it is runnable even if the source is paused. *)
val clone : t -> t

exception Fault of string

(** Execute one instruction on the given thread. Raises {!Fault} on an
    unmapped fetch (the thread is marked faulted first). *)
val step : t -> Thread.t -> unit

val runnable : t -> bool

(** Round-robin execution until every running thread's core reaches
    [cycle_limit], all threads halt, or [max_instrs] is exhausted. Running
    every core to a common cycle horizon models concurrent execution on
    dedicated cores. Raises [Invalid_argument] if the process is paused.

    [engine] selects the per-turn executor under the one shared scheduler:
    [`Blocks] (the default) runs the decoded basic-block engine
    ({!Block_engine}); [`Reference] runs the one-instruction-at-a-time
    interpreter ({!step}). Both produce bit-identical counters, traces and
    hook calls — the reference path is the differential-testing oracle
    that the shadow checker and the tests run. *)
val run :
  ?engine:[ `Reference | `Blocks ] ->
  ?quantum:int ->
  ?max_instrs:int ->
  cycle_limit:float ->
  t ->
  unit

(** Decoded-block cache statistics, once a [`Blocks] run has created it. *)
val code_cache_stats : t -> Block_engine.stats option

(** True when every cached decoded block matches the code map (vacuously
    true before the block engine has run). *)
val validate_code_cache : t -> bool

val pause : t -> unit
val resume : t -> unit

(** Every code address the block engine holds live references to,
    labeled: cached block starts and per-thread resume memos. Empty before
    the block engine has run. OCOLOS's post-GC reachability scanner audits
    these against freed code. *)
val engine_code_pointers : t -> (string * int) list

(** Tell the block engine that paused threads' PCs and frames were
    rewritten into another code version (on-stack replacement): its
    per-thread resume memos are dropped. *)
val notify_threads_migrated : t -> unit

(** Advance running threads' clocks without executing instructions (a
    stop-the-world interval). *)
val stall_all :
  t -> cycles:float -> category:[ `Frontend | `Backend | `BadSpec ] -> unit

(** Sum of all threads' counters. *)
val total_counters : t -> Ocolos_uarch.Counters.t

val max_cycles : t -> float
val transactions : t -> int

(** Read/write a word in the globals region by word offset (how the workload
    driver sets input parameters). *)
val read_global : t -> int -> int

val write_global : t -> int -> int -> unit
