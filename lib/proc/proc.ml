(* A simulated process: an address space plus threads, an interpreter and a
   round-robin scheduler.

   External controllers (the profiler, OCOLOS) interact with the process the
   way perf and ptrace do with a real one: a taken-branch hook observes
   control flow (the LBR analog), pause/resume stops all threads at an
   instruction boundary, and the address space and per-thread register/stack
   state are directly inspectable and patchable while paused. *)

open Ocolos_isa

(* Control-flow vocabulary, execution hooks and the fault exception live in
   Block_engine (the shared semantic kernel); re-export them so existing
   users of [Proc.Cond], [Proc.Fault] etc. are unaffected. *)
type branch_kind = Block_engine.branch_kind =
  | Cond
  | Jump
  | IndJump
  | DirectCall
  | IndCall
  | Return

type hooks = Block_engine.hooks = {
  mutable on_taken_branch :
    (tid:int -> from_addr:int -> to_addr:int -> kind:branch_kind -> cycles:float -> unit) option;
  mutable translate_fp : (int -> int) option;
      (* wrapFuncPtrCreation: rewrites the value materialized by FpCreate *)
}

type t = {
  mem : Addr_space.t;
  threads : Thread.t array;
  binary : Ocolos_binary.Binary.t; (* the image the process was launched from *)
  hooks : hooks;
  mutable instret : int; (* total instructions retired, all threads *)
  mutable paused : bool;
  mutable block_engine : Block_engine.t option; (* created on first `Blocks run *)
}

let load ?(nthreads = 1) ?(cfg = Ocolos_uarch.Config.broadwell) ?(seed = 42) binary =
  let mem = Addr_space.load binary in
  let threads =
    Array.init nthreads (fun tid ->
        Thread.create ~tid ~entry:binary.Ocolos_binary.Binary.entry ~seed:(seed + (7919 * tid))
          ~cfg)
  in
  { mem;
    threads;
    binary;
    hooks = { on_taken_branch = None; translate_fp = None };
    instret = 0;
    paused = false;
    block_engine = None }

(* Independent deep copy of the whole process — the shadow checker's
   substrate. The clone shares no mutable state with the source: address
   space, threads (registers, stacks, PRNGs) are duplicated; hooks start
   empty (the caller installs its own observers); the block cache starts
   cold (a clone replays on whatever engine its caller picks, typically
   [`Reference]); and a paused source yields a runnable clone. *)
let clone t =
  { mem = Addr_space.copy t.mem;
    threads = Array.map Thread.copy t.threads;
    binary = t.binary;
    hooks = { on_taken_branch = None; translate_fp = None };
    instret = t.instret;
    paused = false;
    block_engine = None }

exception Fault = Block_engine.Fault

(* Execute exactly one instruction on [thread], via the shared kernel. *)
let step t (thread : Thread.t) =
  let pc = thread.Thread.pc in
  match Addr_space.read_code t.mem pc with
  | None -> Block_engine.fault_unmapped thread ~pc
  | Some instr ->
    t.instret <- t.instret + 1;
    Block_engine.execute t.mem t.hooks thread ~pc ~size:(Instr.size instr) instr

let runnable t = Array.exists Thread.is_running t.threads

(* [t.instret] equals the sum of per-thread retire counts at all times; the
   block engine maintains only the per-thread counts, so [run] restores the
   invariant by summation (including when unwinding a fault). *)
let sync_instret t =
  t.instret <-
    Array.fold_left (fun acc (th : Thread.t) -> acc + th.Thread.instret) 0 t.threads

let engine_of t =
  match t.block_engine with
  | Some e -> e
  | None ->
    let e = Block_engine.create ~nthreads:(Array.length t.threads) t.mem in
    t.block_engine <- Some e;
    e

(* The reference interpreter's turn: one [step] per iteration, under the
   same per-instruction checks [Block_engine.exec] re-applies before every
   instruction. Returns the number of instructions executed. *)
let step_turn t (thread : Thread.t) ~max_steps ~cycle_limit =
  let i = ref 0 in
  while
    !i < max_steps
    && Thread.is_running thread
    && Ocolos_uarch.Core.cycles thread.Thread.core < cycle_limit
  do
    step t thread;
    incr i
  done;
  !i

(* Round-robin execution until every running thread's core has reached the
   cycle horizon, all threads halt, or the global instruction budget is
   exhausted. The cycle horizon is the simulated wall clock: running every
   core to the same cycle count models threads running concurrently on
   dedicated cores for the same duration. Both engines share this scheduler
   (each thread turn executes up to [min quantum budget] instructions), so
   multi-threaded interleaving over shared data memory is identical; only
   the per-turn executor differs. *)
let run ?(engine = `Blocks) ?(quantum = 64) ?(max_instrs = max_int) ~cycle_limit t =
  if t.paused then invalid_arg "Proc.run: process is paused";
  let turn =
    match engine with
    | `Reference -> step_turn t
    | `Blocks -> Block_engine.exec (engine_of t) t.hooks
  in
  let budget = ref max_instrs in
  let progress = ref true in
  (try
     while !progress && !budget > 0 do
       progress := false;
       Array.iter
         (fun thread ->
           if Thread.is_running thread
              && Ocolos_uarch.Core.cycles thread.Thread.core < cycle_limit
           then begin
             let n = turn thread ~max_steps:(min quantum !budget) ~cycle_limit in
             budget := !budget - n;
             if n > 0 then progress := true
           end)
         t.threads
     done
   with exn ->
     sync_instret t;
     raise exn);
  sync_instret t

let code_cache_stats t = Option.map Block_engine.stats t.block_engine

(* True when every cached decoded block matches the code map (vacuously true
   before the block engine has run). Txn checks this after commit and
   rollback. *)
let validate_code_cache t =
  match t.block_engine with None -> true | Some e -> Block_engine.validate e

(* ptrace-style control: pause stops execution at an instruction boundary
   (callers may then inspect and patch state); resume allows run again. *)
let pause t = t.paused <- true
let resume t = t.paused <- false

(* Every code address the block engine holds live references to (cached
   blocks, per-thread resume memos), labeled. OCOLOS's post-GC reachability
   scanner audits these. *)
let engine_code_pointers t =
  match t.block_engine with None -> [] | Some e -> Block_engine.code_pointers e

(* OCOLOS rewrote paused threads' PCs/frames into another code version
   (on-stack replacement): drop engine state keyed to where the threads
   were — the per-thread resume memos. *)
let notify_threads_migrated t =
  match t.block_engine with Some e -> Block_engine.on_threads_migrated e | None -> ()

(* Advance every running thread's core clock without executing instructions
   (a stop-the-world interval: threads stand still while wall time passes). *)
let stall_all t ~cycles ~category =
  Array.iter
    (fun thread ->
      if Thread.is_running thread then
        Ocolos_uarch.Core.stall thread.Thread.core ~cycles ~category)
    t.threads

let total_counters t =
  Array.fold_left
    (fun acc thread -> Ocolos_uarch.Counters.add acc (Ocolos_uarch.Core.snapshot thread.Thread.core))
    Ocolos_uarch.Counters.zero t.threads

let max_cycles t =
  Array.fold_left
    (fun acc thread -> Float.max acc (Ocolos_uarch.Core.cycles thread.Thread.core))
    0.0 t.threads

let transactions t =
  Array.fold_left
    (fun acc thread -> acc + (Ocolos_uarch.Core.snapshot thread.Thread.core).Ocolos_uarch.Counters.transactions)
    0 t.threads

(* Read a global word, by word offset within the globals region. *)
let read_global t off =
  Addr_space.read_data t.mem (t.binary.Ocolos_binary.Binary.globals_base + off)

let write_global t off v =
  Addr_space.write_data t.mem (t.binary.Ocolos_binary.Binary.globals_base + off) v
