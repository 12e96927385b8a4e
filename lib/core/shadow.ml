(* Tier-2 miscompile containment: post-commit shadow execution.

   Tier-1 validation ({!Ocolos_bolt.Validate}) proves structural CFG
   equivalence before commit, but deliberately cannot prove jump-table
   *correspondence* — a rotated table is still a table of valid block
   starts. The shadow checker closes that hole behaviourally.

   Mechanics: clone the target immediately before and immediately after
   the commit. The pre-commit clone still runs C_i; the post-commit clone
   runs C_{i+1} with OSR-migrated threads; and no workload instruction
   retires between the two captures (the stop-the-world replacement
   brackets them), so the clones stand at the same architectural point.
   Both are replayed for a short window on the reference engine under
   identical scheduling and compared on layout-invariant observables:

   - per-thread control-flow events (direct/indirect calls, returns,
     indirect jumps), resolved to function ids — and, for indirect-jump
     targets, block ids via the round's frame maps — because raw addresses
     are layout-variant. Conditional-branch and plain-jump events are even
     more so (emission negates branch polarity and elides fallthrough
     jumps, so their taken-event streams legitimately differ between
     versions) and are excluded.
   - when both replays run to architectural completion (every thread
     halted): transaction counts, final registers, stacks and data memory,
     modulo the round's old->new address translation.

   Nothing a clone writes is seen by the live process — arming the shadow
   never perturbs the target's execution or its determinism. A clone costs
   a page directory, not the image: its code pages are shared
   copy-on-write, and its threads replay on replay-only cores, since the
   replay runs without a cycle limit and reads only the transaction count
   from them. Each clone carries a translate_fp resolver frozen from the
   controller tables as of its capture instant, so later replacements or
   reverts on the live controller cannot skew the replay. *)

open Ocolos_proc
module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics
module Events = Ocolos_obs.Events
module Frame_map = Ocolos_bolt.Frame_map
module Itbl = Ocolos_util.Itbl

type config = {
  window : int; (* instructions replayed per clone *)
  quantum : int; (* scheduler quantum, matching the live driver's default *)
}

let default_config = { window = 4096; quantum = 64 }

type verdict = Match | Divergence of string

type prepared = { pre_cfg : config; pre_proc : Proc.t }

type t = {
  cfg : config;
  ref_proc : Proc.t; (* pre-commit clone: C_i text and state *)
  new_proc : Proc.t; (* post-commit clone: C_{i+1} text, migrated threads *)
  xlat : int Itbl.t; (* old addr -> new addr (function entries, block starts) *)
  fms : Frame_map.t Itbl.t; (* fid -> its frame map, for exact points *)
  ref_block : int Itbl.t; (* old block start -> bid *)
  new_block : int Itbl.t; (* new block start -> bid *)
}

let prepare ?(config = default_config) oc =
  let p = Proc.clone (Ocolos.proc oc) in
  p.Proc.hooks.translate_fp <- Some (Ocolos.frozen_translate_fp oc);
  { pre_cfg = config; pre_proc = p }

(* The round's translation is indexed by block: function entries and block
   starts go into [xlat]; the instruction-granular exact points stay in the
   frame maps, which [translate] consults on demand. Only the completion
   comparisons read a translation, and only for values that differ. *)
let arm prepared oc (result : Ocolos_bolt.Bolt.result) =
  let np = Proc.clone (Ocolos.proc oc) in
  np.Proc.hooks.translate_fp <- Some (Ocolos.frozen_translate_fp oc);
  let xlat = Itbl.create 256 and fms = Itbl.create 64 in
  List.iter (fun (o, n) -> Itbl.replace xlat o n) result.Ocolos_bolt.Bolt.translation;
  let ref_block = Itbl.create 256 and new_block = Itbl.create 256 in
  List.iter
    (fun (fid, fm) ->
      Itbl.replace fms fid fm;
      Array.iter
        (fun (bs : Frame_map.block_site) ->
          Itbl.replace ref_block bs.Frame_map.bs_old_start bs.Frame_map.bs_bid;
          Itbl.replace new_block bs.Frame_map.bs_new_start bs.Frame_map.bs_bid;
          Itbl.replace xlat bs.Frame_map.bs_old_start bs.Frame_map.bs_new_start)
        fm.Frame_map.fm_blocks)
    result.Ocolos_bolt.Bolt.frame_maps;
  Events.emit "shadow.armed"
    [ ("window", Trace.I prepared.pre_cfg.window);
      ("funcs", Trace.I (List.length result.Ocolos_bolt.Bolt.frame_maps)) ];
  { cfg = prepared.pre_cfg;
    ref_proc = prepared.pre_proc;
    new_proc = np;
    xlat;
    fms;
    ref_block;
    new_block }

(* Layout-invariant event vocabulary. Cond/Jump are excluded (tag -1):
   their taken-event streams differ between equivalent layouts. *)
let kind_tag = function
  | Proc.IndJump -> 0
  | Proc.DirectCall -> 1
  | Proc.IndCall -> 2
  | Proc.Return -> 3
  | Proc.Cond | Proc.Jump -> -1

let ev_str (tag, fid, bid) =
  let k =
    match tag with 0 -> "ijmp" | 1 -> "call" | 2 -> "icall" | 3 -> "ret" | _ -> "?"
  in
  if bid >= 0 then Fmt.str "%s f%d.b%d" k fid bid else Fmt.str "%s f%d" k fid

(* Replay one clone: collect per-thread filtered (kind, fid, bid) events.
   Returns the event streams (oldest first), whether every thread halted,
   and the fault message if the replay itself faulted (corrupted code can
   run off the map — on the clone, never on the live process). *)
let replay cfg block_of (p : Proc.t) =
  let nth = Array.length p.Proc.threads in
  let evs = Array.make nth [] in
  p.Proc.hooks.on_taken_branch <-
    Some
      (fun ~tid ~from_addr:_ ~to_addr ~kind ->
        let tag = kind_tag kind in
        if tag >= 0 then begin
          let fid =
            match Addr_space.fid_of_addr p.Proc.mem to_addr with
            | Some f -> f
            | None -> -1
          in
          let bid =
            match kind with
            | Proc.IndJump -> Itbl.find_default block_of to_addr ~default:(-1)
            | _ -> -1
          in
          evs.(tid) <- (tag, fid, bid) :: evs.(tid)
        end);
  let fault =
    match
      Proc.run ~engine:`Reference ~quantum:cfg.quantum ~max_instrs:cfg.window
        ~cycle_limit:infinity p
    with
    | () -> None
    | exception Proc.Fault msg -> Some msg
  in
  p.Proc.hooks.on_taken_branch <- None;
  (Array.map List.rev evs, (not (Proc.runnable p)) && Option.is_none fault, fault)

let same_event (k, f, b) (k', f', b') = Int.equal k k' && Int.equal f f' && Int.equal b b'

let rec first_mismatch i a b =
  match (a, b) with
  | [], _ | _, [] -> None
  | x :: a', y :: b' -> if same_event x y then first_mismatch (i + 1) a' b' else Some (i, x, y)

(* [v]'s image under the round's old->new translation, or [v] itself when it
   has none. An exact point of the function owning [v] in the old text (its
   frame map's instruction-granular entry) takes precedence over a block
   start, which takes precedence over a function entry. *)
let translate t v =
  let exact =
    match Addr_space.fid_of_addr t.ref_proc.Proc.mem v with
    | None -> None
    | Some fid -> (
      match Itbl.find_opt t.fms fid with
      | None -> None
      | Some fm -> (
        match Frame_map.resolve fm v with
        | Frame_map.Exact n -> Some n
        | Frame_map.Mid_block _ | Frame_map.Unmapped -> None))
  in
  match exact with Some n -> n | None -> Itbl.find_default t.xlat v ~default:v

(* A new-version value is equivalent to an old-version one when it is equal
   or is its image under the round's old->new address translation. *)
let equivalent t v_ref v_new = Int.equal v_ref v_new || Int.equal (translate t v_ref) v_new

let check t =
  Trace.span "shadow.check" @@ fun sp ->
  let ref_evs, ref_done, ref_fault = replay t.cfg t.ref_block t.ref_proc in
  let new_evs, new_done, new_fault = replay t.cfg t.new_block t.new_proc in
  let divergence = ref None in
  let diverged () = Option.is_some !divergence in
  let fail msg = if not (diverged ()) then divergence := Some msg in
  Array.iteri
    (fun tid evs_r ->
      match first_mismatch 0 evs_r new_evs.(tid) with
      | Some (i, x, y) ->
        fail
          (Fmt.str "tid %d: control-flow event %d differs: %s (old) vs %s (new)" tid i
             (ev_str x) (ev_str y))
      | None ->
        if
          ref_done && new_done
          && List.length evs_r <> List.length new_evs.(tid)
        then
          fail
            (Fmt.str "tid %d: %d control-flow events (old) vs %d (new) at completion"
               tid (List.length evs_r)
               (List.length new_evs.(tid))))
    ref_evs;
  (* A replay fault on exactly one side is a divergence in itself; both
     sides faulting means the workload faults regardless of layout, and the
     event-prefix comparison above already judged equivalence. *)
  (match (ref_fault, new_fault) with
  | None, Some msg -> fail (Fmt.str "new version faulted during replay: %s" msg)
  | Some msg, None -> fail (Fmt.str "old version faulted during replay: %s" msg)
  | None, None | Some _, Some _ -> ());
  (* Deep final-state comparison only at architectural completion: a
     budget-limited replay stops the two clones at different architectural
     points (the new layout retires fewer instructions per unit of work),
     so registers and memory are only comparable when both ran dry. *)
  if (not (diverged ())) && ref_done && new_done then begin
    if Proc.transactions t.ref_proc <> Proc.transactions t.new_proc then
      fail
        (Fmt.str "transactions diverged: %d (old) vs %d (new)"
           (Proc.transactions t.ref_proc)
           (Proc.transactions t.new_proc));
    Array.iteri
      (fun tid (rt : Thread.t) ->
        let nt = t.new_proc.Proc.threads.(tid) in
        if not (diverged ()) then begin
          Array.iteri
            (fun r v ->
              if not (equivalent t v nt.Thread.regs.(r)) then
                fail
                  (Fmt.str "tid %d: r%d diverged: %d (old) vs %d (new)" tid r v
                     nt.Thread.regs.(r)))
            rt.Thread.regs;
          if rt.Thread.depth <> nt.Thread.depth then
            fail
              (Fmt.str "tid %d: stack depth diverged: %d (old) vs %d (new)" tid
                 rt.Thread.depth nt.Thread.depth)
          else
            for i = 0 to rt.Thread.depth - 1 do
              let fr = rt.Thread.frames.(i) and fn = nt.Thread.frames.(i) in
              if
                not
                  (equivalent t fr.Thread.ret_addr fn.Thread.ret_addr
                  && equivalent t fr.Thread.callee_entry fn.Thread.callee_entry)
              then fail (Fmt.str "tid %d: frame %d diverged" tid i)
            done
        end)
      t.ref_proc.Proc.threads;
    (* Data memory, over addresses present in both clones (the commit
       allocates fresh jump-table words and may reap inherited ones, so
       one-sided addresses are expected). *)
    Ocolos_util.Itbl.iter
      (fun addr v_ref ->
        if not (diverged ()) then
          match Ocolos_util.Itbl.find_opt t.new_proc.Proc.mem.Addr_space.data addr with
          | None -> ()
          | Some v_new ->
            if not (equivalent t v_ref v_new) then
              fail
                (Fmt.str "data[0x%x] diverged: %d (old) vs %d (new)" addr v_ref v_new))
      t.ref_proc.Proc.mem.Addr_space.data
  end;
  let verdict = match !divergence with None -> Match | Some r -> Divergence r in
  Trace.set_attr sp "ok" (Trace.B (Option.is_none !divergence));
  (match verdict with
  | Match -> Events.emit "shadow.verdict" [ ("ok", Trace.B true); ("window", Trace.I t.cfg.window) ]
  | Divergence reason ->
    Metrics.count "ocolos_shadow_divergences_total" 1;
    Trace.set_attr sp "reason" (Trace.S reason);
    Events.emit "shadow.verdict"
      [ ("ok", Trace.B false); ("window", Trace.I t.cfg.window); ("reason", Trace.S reason) ]);
  verdict

let pp_verdict fmt = function
  | Match -> Fmt.pf fmt "match"
  | Divergence reason -> Fmt.pf fmt "divergence: %s" reason
