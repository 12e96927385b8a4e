(* Transactional code replacement.

   OCOLOS's stop-the-world phase mutates the target's address space (code
   injection, v-table and call-site patches, GC unmapping), the thread
   stacks (return-address / PC redirection in continuous rounds) and the
   controller's own version state. The paper assumes the
   pause/inject/patch/resume sequence never fails; here every mutation is
   journaled so that a fault firing anywhere mid-replacement rolls the
   process back to a consistent C_i — the managed process resumes on the
   previous code version instead of crashing on a half-applied patch.

   Mechanics: the address space saves its code map as a copy-on-write page
   directory and records an undo log of data words (Addr_space journal),
   thread PCs and frames are snapshotted up front (replace_code never
   pushes or pops frames, only rewrites them in place), and the
   controller's live view, an immutable value, is kept to assign back. On
   any exception the three are restored in reverse dependency order and
   the process is resumed; an injected fault becomes a [Rolled_back]
   outcome, anything else is re-raised after the rollback. *)

open Ocolos_proc

type rollback = {
  rb_point : string; (* injection point that fired *)
  rb_hit : int; (* hit count at which it fired *)
  rb_undone : int; (* address-space mutations undone *)
}

type diverged = {
  dv_reason : string; (* the shadow checker's divergence description *)
  dv_undone : int; (* address-space mutations undone *)
}

type outcome =
  | Committed of Ocolos.replacement_stats
  | Rolled_back of rollback
  | Diverged of diverged

let injection_points = Ocolos.injection_points

(* Registers are captured too: OSR's register-migration pass rewrites
   scratch registers and stored function-pointer values in place, and a
   fault after it must put the original values back. *)
type thread_snap = { th_pc : int; th_regs : int array; th_frames : (int * int) array }

let snapshot_threads (proc : Proc.t) =
  Array.map
    (fun (th : Thread.t) ->
      { th_pc = th.Thread.pc;
        th_regs = Array.copy th.Thread.regs;
        th_frames =
          Array.init th.Thread.depth (fun i ->
              let f = th.Thread.frames.(i) in
              (f.Thread.ret_addr, f.Thread.callee_entry)) })
    proc.Proc.threads

let restore_threads (proc : Proc.t) snaps =
  Array.iteri
    (fun i snap ->
      let th = proc.Proc.threads.(i) in
      th.Thread.pc <- snap.th_pc;
      Array.blit snap.th_regs 0 th.Thread.regs 0 (Array.length snap.th_regs);
      Array.iteri
        (fun j (ra, ce) ->
          let f = th.Thread.frames.(j) in
          f.Thread.ret_addr <- ra;
          f.Thread.callee_entry <- ce)
        snap.th_frames)
    snaps

module Trace = Ocolos_obs.Trace
module Events = Ocolos_obs.Events

(* The decoded-block engine invalidates its cache through the address-space
   code watcher, which replace_code exercises on both the forward path and
   the restore of a rollback's saved code map. An incoherent entry after
   either means the invalidation feed missed a write — fail loudly rather
   than let the process resume on stale decoded code. Deliberately not a metric or trace
   attribute: exports must stay byte-identical across engines. *)
let check_block_cache proc ~after =
  if not (Proc.validate_code_cache proc) then
    failwith ("Txn.replace_code: decoded-block cache incoherent after " ^ after)

(* [verify] is the Tier-2 pre-commit-point gate: it runs after every
   mutation of the replacement has been applied (threads migrated, code
   and data patched — the address space reads as C_{i+1}) but before the
   journal is discarded, so a [Error] verdict unwinds through the exact
   same journal rollback a mid-transaction fault uses. That rollback is
   byte-exact — thread PCs, registers and frames restored from the
   up-front snapshot — which is what lets the chaos harness demand the
   surviving trace be byte-identical to a run that never attempted the
   replacement. *)
let replace_code ?verify (oc : Ocolos.t) (result : Ocolos_bolt.Bolt.result) =
  Trace.span "txn.replace" @@ fun txn_sp ->
  let proc = Ocolos.proc oc in
  let mem = proc.Proc.mem in
  let was_paused = proc.Proc.paused in
  let oc_view = Ocolos.view oc in
  let th_snap = snapshot_threads proc in
  Addr_space.begin_journal mem;
  Events.emit "txn.begin" [ ("incumbent", Trace.I (Ocolos.version oc)) ];
  let undo () =
    let undone = Addr_space.rollback_journal mem in
    restore_threads proc th_snap;
    (* Thread state moved twice (migrated forward, then restored): any
       engine memo keyed to where a thread stood is stale either way. *)
    Proc.notify_threads_migrated proc;
    Ocolos.restore oc oc_view;
    if not was_paused then Proc.resume proc;
    check_block_cache proc ~after:"rollback";
    undone
  in
  match Ocolos.replace_code oc result with
  | stats -> (
    let verdict = match verify with None -> Ok () | Some f -> f () in
    match verdict with
    | Ok () ->
      let journaled = Addr_space.commit_journal mem in
      check_block_cache proc ~after:"commit";
      Trace.set_attr txn_sp "outcome" (Trace.S "committed");
      Trace.set_attr txn_sp "version" (Trace.I stats.Ocolos.version);
      Trace.set_attr txn_sp "journaled" (Trace.I journaled);
      Events.emit "txn.commit"
        [ ("version", Trace.I stats.Ocolos.version); ("journaled", Trace.I journaled) ];
      Committed stats
    | Error reason ->
      let undone = undo () in
      Trace.set_attr txn_sp "outcome" (Trace.S "diverged");
      Events.emit "txn.diverged" [ ("reason", Trace.S reason); ("undone", Trace.I undone) ];
      Diverged { dv_reason = reason; dv_undone = undone })
  | exception e ->
    let undone = undo () in
    (match e with
    | Ocolos_util.Fault.Injected (point, hit) ->
      Trace.set_attr txn_sp "outcome" (Trace.S "rolled_back");
      Events.emit "txn.rollback"
        [ ("point", Trace.S point); ("hit", Trace.I hit); ("undone", Trace.I undone) ];
      Rolled_back { rb_point = point; rb_hit = hit; rb_undone = undone }
    | e -> raise e)

let pp_outcome fmt = function
  | Committed stats -> Fmt.pf fmt "committed C%d" stats.Ocolos.version
  | Rolled_back rb ->
    Fmt.pf fmt "rolled back at %s (hit %d, %d mutations undone)" rb.rb_point rb.rb_hit
      rb.rb_undone
  | Diverged dv ->
    Fmt.pf fmt "diverged (%s, %d mutations undone)" dv.dv_reason dv.dv_undone
