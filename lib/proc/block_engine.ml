(* Decoded basic-block execution engine.

   The reference interpreter in [Proc.step] pays a hash-table lookup and a
   dispatch per instruction. This engine predecodes straight-line runs into
   flat arrays ({!Ocolos_isa.Predecode.block}) keyed by entry address and
   executes a whole block per dispatch. Semantics are shared with the
   reference path through a single kernel ({!execute}): both engines make
   the same [Core.fetch] / [Core.on_mem] / branch-event / hook calls in the
   same order, so uarch counters, LBR samples and taken-branch traces are
   bit-identical between them.

   Correctness under OCOLOS-style code replacement comes from a precise
   invalidation feed: the engine registers itself as a code watcher of the
   address space, so every code write (one instruction, or a whole run of
   writes or removals) and each slot the restore of a rolled-back
   [Txn.replace_code] changes invalidates exactly the cached blocks
   overlapping the written byte span. A generation counter guards the
   in-flight block: if a hook patches code mid-block, the inner loop bails
   out and re-dispatches at the current pc, exactly as the reference
   interpreter would re-fetch. *)

open Ocolos_isa

type branch_kind = Cond | Jump | IndJump | DirectCall | IndCall | Return

type hooks = {
  mutable on_taken_branch :
    (tid:int -> from_addr:int -> to_addr:int -> kind:branch_kind -> unit) option;
  mutable translate_fp : (int -> int) option;
      (* wrapFuncPtrCreation: rewrites the value materialized by FpCreate *)
}

exception Fault of string

let fault_unmapped (thread : Thread.t) ~pc =
  let msg =
    Printf.sprintf "thread %d: fetch from unmapped address 0x%x" thread.Thread.tid pc
  in
  thread.Thread.state <- Thread.Faulted msg;
  raise (Fault msg)

let notify_branch hooks (thread : Thread.t) ~from_addr ~to_addr ~kind =
  match hooks.on_taken_branch with
  | None -> ()
  | Some f -> f ~tid:thread.Thread.tid ~from_addr ~to_addr ~kind

(* The shared semantic kernel: execute exactly one already-fetched-and-sized
   instruction on [thread]. Event order is the contract both engines rely on
   for bit-identical counters and traces: fetch, retire, then per-instruction
   semantics with their memory/branch events.

   Register operands are validated by [Addr_space.write_code] before an
   instruction can reach either engine, so the register file is accessed
   unchecked; [@inline] removes the per-instruction call from both
   engines' dispatch loops. *)
let[@inline] execute mem hooks (thread : Thread.t) ~pc ~size instr =
  let core = thread.Thread.core in
  let regs = thread.Thread.regs in
  Ocolos_uarch.Core.fetch core ~addr:pc ~size;
  thread.Thread.instret <- thread.Thread.instret + 1;
  let next = pc + size in
  match instr with
  | Instr.Nop -> thread.Thread.pc <- next
  | Instr.TxMark ->
    Ocolos_uarch.Core.on_tx core;
    thread.Thread.pc <- next
  | Instr.Alu (op, d, a, b) ->
    Array.unsafe_set regs d
      (Instr.eval_alu op (Array.unsafe_get regs a) (Array.unsafe_get regs b));
    thread.Thread.pc <- next
  | Instr.Alui (op, d, a, imm) ->
    Array.unsafe_set regs d (Instr.eval_alu op (Array.unsafe_get regs a) imm);
    thread.Thread.pc <- next
  | Instr.Movi (d, imm) ->
    Array.unsafe_set regs d imm;
    thread.Thread.pc <- next
  | Instr.Load (d, b, off) ->
    let addr = Array.unsafe_get regs b + off in
    Ocolos_uarch.Core.on_mem core ~addr:(addr lsl 3);
    Array.unsafe_set regs d (Addr_space.read_data mem addr);
    thread.Thread.pc <- next
  | Instr.Store (s, b, off) ->
    let addr = Array.unsafe_get regs b + off in
    Ocolos_uarch.Core.on_mem core ~addr:(addr lsl 3);
    Addr_space.write_data mem addr (Array.unsafe_get regs s);
    thread.Thread.pc <- next
  | Instr.Branch (c, r, target) ->
    let taken = Instr.eval_cond c (Array.unsafe_get regs r) in
    Ocolos_uarch.Core.on_cond_branch core ~pc ~taken ~target;
    if taken then begin
      notify_branch hooks thread ~from_addr:pc ~to_addr:target ~kind:Cond;
      thread.Thread.pc <- target
    end
    else thread.Thread.pc <- next
  | Instr.Jump target ->
    Ocolos_uarch.Core.on_jump core ~pc ~target;
    notify_branch hooks thread ~from_addr:pc ~to_addr:target ~kind:Jump;
    thread.Thread.pc <- target
  | Instr.JumpInd r ->
    let target = Array.unsafe_get regs r in
    Ocolos_uarch.Core.on_indirect_jump core ~pc ~target;
    notify_branch hooks thread ~from_addr:pc ~to_addr:target ~kind:IndJump;
    thread.Thread.pc <- target
  | Instr.Call target ->
    Thread.push_frame thread ~ret_addr:next ~callee_entry:target;
    Ocolos_uarch.Core.on_call core ~pc ~target ~return_addr:next ~indirect:false;
    notify_branch hooks thread ~from_addr:pc ~to_addr:target ~kind:DirectCall;
    thread.Thread.pc <- target
  | Instr.CallInd r ->
    let target = Array.unsafe_get regs r in
    Thread.push_frame thread ~ret_addr:next ~callee_entry:target;
    Ocolos_uarch.Core.on_call core ~pc ~target ~return_addr:next ~indirect:true;
    notify_branch hooks thread ~from_addr:pc ~to_addr:target ~kind:IndCall;
    thread.Thread.pc <- target
  | Instr.Ret ->
    if thread.Thread.depth = 0 then thread.Thread.state <- Thread.Halted
    else begin
      let target = Thread.pop_ret thread in
      Ocolos_uarch.Core.on_ret core ~pc ~target;
      notify_branch hooks thread ~from_addr:pc ~to_addr:target ~kind:Return;
      thread.Thread.pc <- target
    end
  | Instr.FpCreate (d, target) ->
    let v = match hooks.translate_fp with None -> target | Some f -> f target in
    Array.unsafe_set regs d v;
    thread.Thread.pc <- next
  | Instr.VtLoad (d, vid, slot) ->
    let addr = Addr_space.vtable_base mem vid + slot in
    Ocolos_uarch.Core.on_mem core ~addr:(addr lsl 3);
    Array.unsafe_set regs d (Addr_space.read_data mem addr);
    thread.Thread.pc <- next
  | Instr.Rand (d, bound) ->
    Array.unsafe_set regs d (Ocolos_util.Rng.int thread.Thread.rng bound);
    thread.Thread.pc <- next
  | Instr.Halt -> thread.Thread.state <- Thread.Halted

(* ------------------------------------------------------------------ *)
(* The block cache. *)

type stats = {
  decodes : int;
  dispatches : int;
  invalidations : int;
  resident : int;
}

(* A cached block and its dispatch chain: the blocks that followed it
   last time, one for leaving by its end ([fall]) and one for any other
   exit ([other]). A chain is trusted only while [ch_epoch] equals the
   engine's [epoch], which every unregistration bumps, so a chained block
   is always a cached one; and only when its start is the pc being
   dispatched, so a stale guess costs a table probe, never a wrong block.
   On branchy code, where blocks are one or two instructions long, the
   chain turns most dispatches into two loads and a compare. *)
type entry = {
  blk : Predecode.block;
  mutable fall : entry;
  mutable other : entry;
  mutable ch_epoch : int;
}

(* Tables keyed by code address. [blocks] is read on every dispatch the
   memo and the chains miss, so it is the open-addressing int table: a
   probe is a few loads, no C call. *)
module Itbl = Ocolos_util.Itbl

type t = {
  mem : Addr_space.t;
  read : int -> Instr.t;
      (* the code map as the decoder and the coherence check read it:
         [Predecode.unmapped] where nothing is mapped, so a read allocates
         no [Some] *)
  blocks : entry Itbl.t; (* entry address -> block *)
  cover : int list Itbl.t;
      (* 64-byte code line -> entry addresses of the blocks whose bytes
         touch it: the candidate index behind precise invalidation. A
         block's entries are contiguous, so its bytes are exactly
         [b_start, b_end); [invalidate] checks that range against the
         write, so a write that clips the tail of one instruction or
         crosses a block boundary still reaches each overlapping block and
         no other. One slot per line rather than per byte keeps the index
         a few percent of a large kernel's cached blocks. *)
  memo : entry array; (* per-tid in-flight block ([no_entry] = none) ... *)
  memo_idx : int array; (* ... and the entry index to resume at *)
  mutable gen : int; (* bumped on every code write; guards in-flight blocks *)
  mutable epoch : int; (* bumped on every unregistration; guards chains *)
  mutable decodes : int;
  mutable dispatches : int;
  mutable invalidations : int;
}

(* Sentinel for "no block": empty entry array and an impossible start
   address, so the memo checks in [exec] and the chain check in [dispatch]
   fail without a branch on an option (and without allocating a [Some]
   per dispatch). *)
let rec no_entry =
  { blk = { Predecode.b_start = -1; b_end = -1; b_addrs = [||]; b_sizes = [||]; b_instrs = [||] };
    fall = no_entry;
    other = no_entry;
    ch_epoch = -1 }

let line_bits = 6

(* Add or remove [b] in the cover list of every line its bytes touch. *)
let register t (e : entry) =
  let b = e.blk in
  let start = b.Predecode.b_start in
  Itbl.replace t.blocks start e;
  for line = start lsr line_bits to (b.Predecode.b_end - 1) lsr line_bits do
    let starts = Itbl.find_default t.cover line ~default:[] in
    if not (List.exists (fun s -> s = start) starts) then
      Itbl.replace t.cover line (start :: starts)
  done

let unregister t (b : Predecode.block) =
  let start = b.Predecode.b_start in
  Itbl.remove t.blocks start;
  t.epoch <- t.epoch + 1;
  for line = start lsr line_bits to (b.Predecode.b_end - 1) lsr line_bits do
    match Itbl.find_opt t.cover line with
    | None -> ()
    | Some starts -> (
      match List.filter (fun s -> s <> start) starts with
      | [] -> Itbl.remove t.cover line
      | rest -> Itbl.replace t.cover line rest)
  done

(* A code write dirtying bytes [start, start+len): drop every cached block
   whose decoded entries overlap the span — not just the one keyed at
   [start]; a wide encoding can overlay the tail of one block and the head
   of the next — bump the generation so any in-flight block re-dispatches,
   and clear the per-thread memos (they may point at dropped blocks). The
   probe walks each cover line of the span once: two at most for one
   instruction ([len] <= the widest encoding, 7 bytes), and one pass with
   one memo fill for a whole run of writes or removals, so invalidation
   stays O(write span), not O(cache). *)
let invalidate t ~start ~len =
  t.gen <- t.gen + 1;
  let stop = start + len in
  if len > 0 then
    for line = start lsr line_bits to (stop - 1) lsr line_bits do
      List.iter
        (fun s ->
          let e = Itbl.find_default t.blocks s ~default:no_entry in
          let b = e.blk in
          if e != no_entry && b.Predecode.b_start < stop && start < b.Predecode.b_end then begin
            t.invalidations <- t.invalidations + 1;
            unregister t b
          end)
        (Itbl.find_default t.cover line ~default:[])
    done;
  Array.fill t.memo 0 (Array.length t.memo) no_entry

let create ~nthreads mem =
  let t =
    { mem;
      read =
        (fun a -> Ocolos_util.Codemap.find_default mem.Addr_space.code a ~default:Predecode.unmapped);
      blocks = Itbl.create 1024;
      cover = Itbl.create 4096;
      memo = Array.make (max 1 nthreads) no_entry;
      memo_idx = Array.make (max 1 nthreads) 0;
      gen = 0;
      epoch = 0;
      decodes = 0;
      dispatches = 0;
      invalidations = 0 }
  in
  Addr_space.add_code_watcher mem (fun start len -> invalidate t ~start ~len);
  t

(* The block to run at [pc] after [m] (the block the thread last ran, or
   [no_entry]): [m]'s chain when it guesses right, else the table, decoding
   on miss; then [m] is chained to the answer. [no_entry] when [pc] holds
   no instruction. *)
let dispatch t (m : entry) pc =
  let guess =
    if m.ch_epoch <> t.epoch then no_entry
    else if pc = m.blk.Predecode.b_end then m.fall
    else m.other
  in
  if guess.blk.Predecode.b_start = pc then guess
  else begin
    (* [find_default], not [find_opt]: a table hit allocates no [Some]. *)
    let e =
      match Itbl.find_default t.blocks pc ~default:no_entry with
      | e when e != no_entry -> e
      | _ -> (
        match Predecode.decode ~read:t.read pc with
        | Some b ->
          t.decodes <- t.decodes + 1;
          let e = { blk = b; fall = no_entry; other = no_entry; ch_epoch = -1 } in
          register t e;
          e
        | None -> no_entry)
    in
    if e != no_entry && m != no_entry then begin
      if m.ch_epoch <> t.epoch then begin
        m.fall <- no_entry;
        m.other <- no_entry;
        m.ch_epoch <- t.epoch
      end;
      if pc = m.blk.Predecode.b_end then m.fall <- e else m.other <- e
    end;
    e
  end

(* Run [thread] for up to [max_steps] instructions or until it stops being
   runnable or reaches [cycle_limit]. Returns the number of instructions
   executed. An instruction executes here iff the reference inner loop
   (Proc.run) would execute it: the same three conditions are re-checked
   before every single instruction, block boundaries notwithstanding.

   The memo holds the thread's in-flight block between turns: resuming
   mid-block (a quantum boundary landed inside it) or looping back to its
   start skips [dispatch]. Within a turn the in-flight block and its
   entry index live in locals, and the memo is written once, when the
   turn ends or unwinds: a memo store is a [caml_modify], which darkens
   the block it overwrites whenever the major GC is marking — too dear
   once per dispatch. Decoding at a mid-block address is merely a cache
   miss, not an error: the decoded entries are correct for that pc. *)
let exec t hooks (thread : Thread.t) ~max_steps ~cycle_limit =
  let core = thread.Thread.core in
  let tid = thread.Thread.tid in
  (* With an infinite horizon the cycle condition is vacuously true (cycle
     counts stay finite), so the per-instruction [Core.cycles] sum can be
     skipped without changing which instructions execute. *)
  let check_cycles = cycle_limit <> infinity in
  let n = ref 0 in
  let cur = ref (Array.unsafe_get t.memo tid) in
  let k = ref (Array.unsafe_get t.memo_idx tid) in
  (* The entry index and code generation the current block started at:
     what the memo would read if the turn unwound here. *)
  let k0 = ref !k and gen0 = ref t.gen in
  match
    while
      !n < max_steps
      && Thread.is_running thread
      && ((not check_cycles) || Ocolos_uarch.Core.cycles_below core cycle_limit)
    do
      let pc = thread.Thread.pc in
      let m = !cur in
      let mb = m.blk in
      k0 := !k;
      if !k < Array.length mb.Predecode.b_addrs && Array.unsafe_get mb.Predecode.b_addrs !k = pc
      then ()
      else if mb.Predecode.b_start = pc then k := 0
      else begin
        let e = dispatch t m pc in
        if e == no_entry then fault_unmapped thread ~pc;
        cur := e;
        k := 0
      end;
      k0 := !k;
      gen0 := t.gen;
      t.dispatches <- t.dispatches + 1;
      (* Hoisted so the loop body reads locals, not block fields, across
         the [execute] calls. *)
      let block = (!cur).blk in
      let addrs = block.Predecode.b_addrs in
      let sizes = block.Predecode.b_sizes in
      let instrs = block.Predecode.b_instrs in
      let len = Array.length instrs in
      let gen = !gen0 in
      let live = ref true in
      (* [n] and [k] advance in lockstep, so one bound covers both the
         block end and the step budget. *)
      let stop = if !n + (len - !k) < max_steps then !n + (len - !k) else max_steps in
      (* By the decode invariant, only the last entry can be a control
         transfer, so pc always equals the next entry's address inside the
         loop; a mid-block code write bumps [gen] and forces re-dispatch. *)
      while
        !live
        && !n < stop
        && t.gen = gen
        && ((not check_cycles) || Ocolos_uarch.Core.cycles_below core cycle_limit)
      do
        let i = !k in
        execute t.mem hooks thread ~pc:(Array.unsafe_get addrs i)
          ~size:(Array.unsafe_get sizes i)
          (Array.unsafe_get instrs i);
        incr n;
        incr k;
        if not (Thread.is_running thread) then live := false
      done;
      (* An invalidation cleared the memo precisely because blocks like
         this one may be stale: forget it, so the next dispatch goes
         through the table. *)
      if t.gen <> gen then begin
        cur := no_entry;
        k := 0
      end
    done
  with
  | () ->
    (* Where this block was left, so a quantum boundary resumes instead
       of re-dispatching. *)
    t.memo.(tid) <- !cur;
    Array.unsafe_set t.memo_idx tid !k;
    !n
  | exception exn ->
    (* Unwinding (a fault, or a hook's exception): the memo reads as if it
       had been written at the last dispatch, unless an invalidation has
       cleared it since. *)
    if t.gen = !gen0 then begin
      t.memo.(tid) <- !cur;
      Array.unsafe_set t.memo_idx tid !k0
    end;
    raise exn

let stats t =
  { decodes = t.decodes;
    dispatches = t.dispatches;
    invalidations = t.invalidations;
    resident = Itbl.length t.blocks }

(* Every cached block must still match the code map. [Txn.replace_code]
   checks this after both commit and rollback: an incoherent entry here
   means the invalidation feed missed a write. *)
let validate t = Itbl.fold (fun _ e acc -> acc && Predecode.coherent ~read:t.read e.blk) t.blocks true

(* Every code address the engine holds a live reference to: cached block
   starts and each thread's in-flight resume point. OCOLOS's post-GC
   reachability scanner audits these — an entry surviving the unmapping of
   its bytes means the invalidation feed missed a write. *)
let code_pointers t =
  let acc = ref [] in
  Itbl.iter (fun start _ -> acc := ("block", start) :: !acc) t.blocks;
  Array.iteri
    (fun tid (m : entry) ->
      if m != no_entry then begin
        let m = m.blk in
        acc := ("block_memo", m.Predecode.b_start) :: !acc;
        let k = Array.unsafe_get t.memo_idx tid in
        if k < Array.length m.Predecode.b_addrs then
          acc := ("block_resume", m.Predecode.b_addrs.(k)) :: !acc
      end)
    t.memo;
  !acc

(* OCOLOS migrated paused threads to another code version: the per-thread
   resume memos describe where the threads *were*, so drop them. The block
   table itself stays — entries covering surviving code remain valid. *)
let on_threads_migrated t =
  Array.fill t.memo 0 (Array.length t.memo) no_entry;
  Array.fill t.memo_idx 0 (Array.length t.memo_idx) 0
