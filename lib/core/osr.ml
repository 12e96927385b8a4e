(* On-stack replacement: the code-version transition a commit and a revert
   share — [migrate] moves every code pointer it can translate off the
   doomed text onto the desired entries and keeps the text of the rest in
   place, [retire] unmaps the doomed text it did not keep, reaps residue
   and audits what is left (see osr.mli). *)

open Ocolos_isa
open Ocolos_proc
open Ocolos_bolt
module Binary = Ocolos_binary.Binary
module Trace = Ocolos_obs.Trace
module Codemap = Ocolos_util.Codemap

(* Transient code left behind by one OSR round: compensation stubs, and
   doomed text kept in place because something the round could not
   translate still reaches it. Each is tagged with the round that created
   it; the round's inherited jump-table words (below) drain with it. *)
type residue = {
  rs_fid : int;
  rs_round : int;
  rs_ranges : (int * int) list; (* [start, end) *)
}

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* One code version's controller state, as a value: a commit, a reap, a
   reattach and a revert each build the next view and assign it, so a
   snapshot is just the view it saw. The arrays are indexed by fid, like
   [Binary.symbols], and never written once the view is built. *)
type view = {
  version : int;
  current : Binary.t; (* live symbol/code view; its entries are the live ones *)
  resident : (int * int) list array; (* fid -> resident ranges [start, end) *)
  entry_fid : int Imap.t; (* entry of any version ever live -> fid *)
  init_addrs : Iset.t; (* every tracked data word *)
  table_addrs : Iset.t; (* tracked words whose registered value was a code address *)
  residue : residue list;
  inherited : (int * int list) list; (* (round, word addrs) draining with its residue *)
}

let entry v fid = v.current.Binary.symbols.(fid).Binary.fs_entry

type t = {
  proc : Proc.t;
  vtable_slots : (int * int * int) array; (* (vid, slot, fid) *)
  offline_sites : (int * int * int) array; (* (site addr, owner fid, callee fid) *)
  patch_all_direct_calls : bool;
  mutable rounds : int;
  mutable view : view;
}

(* ---- sorted range sets ---- *)

(* Code ranges [start, end), sorted and coalesced, so membership is one
   binary search whatever the input's order or overlaps. *)
type range_set = (int * int) array

let range_set l : range_set =
  let a = Array.of_list l in
  Array.sort (fun (s, e) (s', e') -> if s <> s' then Int.compare s s' else Int.compare e e') a;
  let rev =
    Array.fold_left
      (fun acc (s, e) ->
        match acc with
        | (s0, e0) :: tl when s <= e0 -> (s0, Int.max e0 e) :: tl
        | _ -> (s, e) :: acc)
      [] a
  in
  Array.of_list (List.rev rev)

let in_ranges (set : range_set) addr =
  let lo = ref 0 and hi = ref (Array.length set - 1) and found = ref false in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s, e = set.(mid) in
    if addr < s then hi := mid - 1
    else if addr >= e then lo := mid + 1
    else begin
      found := true;
      lo := !hi + 1
    end
  done;
  !found

(* [f addr instr] for every instruction mapped in [\[s, e)], skipping
   unmapped padding bytes. *)
let iter_code mem (s, e) f =
  let addr = ref s in
  while !addr < e do
    let instr = Codemap.find_default mem.Addr_space.code !addr ~default:Predecode.unmapped in
    if instr == Predecode.unmapped then incr addr
    else begin
      f !addr instr;
      addr := !addr + Instr.size instr
    end
  done

(* Whether any of [addrs] falls inside residue [r]. *)
let holds r addrs =
  let own = range_set r.rs_ranges in
  List.exists (in_ranges own) addrs

(* ---- liveness and footprint ---- *)

let live_frames_and_pcs t =
  Array.to_list t.proc.Proc.threads
  |> List.concat_map (fun (thread : Thread.t) ->
         if Thread.is_running thread then thread.Thread.pc :: Thread.return_addresses thread
         else [])

(* Functions currently on some thread's stack (by return address or PC). *)
let stack_live_fids t =
  let fids = Hashtbl.create 32 in
  List.iter
    (fun addr ->
      match Addr_space.fid_of_addr t.proc.Proc.mem addr with
      | Some fid -> Hashtbl.replace fids fid ()
      | None -> ())
    (live_frames_and_pcs t);
  fids

let residue_bytes t =
  List.fold_left
    (fun acc r -> acc + List.fold_left (fun a (s, e) -> a + (e - s)) 0 r.rs_ranges)
    0 t.view.residue

let resident_extra_bytes t =
  residue_bytes t
  + (8 * List.fold_left (fun acc (_, addrs) -> acc + List.length addrs) 0 t.view.inherited)

let int_mem a l = List.exists (Int.equal a) l
let inherited_mem t a = List.exists (fun (_, addrs) -> int_mem a addrs) t.view.inherited

(* ---- the migration context ----

   One per round. [ox_doomed] is the text being retired this round; frames,
   PCs and scratch registers pointing into it are rewritten through the
   frame maps or via compensation stubs, or — when neither translates them
   — their function's doomed text is kept in place. [ox_cut] injects the
   round's fault points. *)
type ctx = {
  ox_doomed : range_set;
  ox_fms : (int, Frame_map.t) Hashtbl.t;
  ox_old_entry_fid : (int, int) Hashtbl.t; (* doomed entry -> fid *)
  ox_desired : int -> int; (* fid -> entry it should resolve to now *)
  ox_stubs : (int, int) Hashtbl.t; (* old pc -> stub entry *)
  mutable ox_stub_ranges : Addr_space.sym_range list;
      (* stubs built this round, indexed in one batch once the threads are
         migrated: no lookup before then lands in fresh stub text *)
  mutable ox_residue : residue list;
  ox_kept : (int, (int * int) list) Hashtbl.t; (* fid -> its doomed ranges kept mapped *)
  mutable ox_stub_count : int;
  ox_round : int;
  ox_cut : string -> unit;
  mutable ox_gc_span : Trace.span option; (* [replace.gc], open from migrate to retire *)
}

let in_doomed ctx addr = in_ranges ctx.ox_doomed addr

let make_ctx t ~doomed ~fms ~desired ~round ~cut =
  let fm_tbl = Hashtbl.create 64 in
  List.iter (fun (fid, fm) -> Hashtbl.replace fm_tbl fid fm) fms;
  let ctx =
    { ox_doomed = range_set doomed;
      ox_fms = fm_tbl;
      ox_old_entry_fid = Hashtbl.create 64;
      ox_desired = desired;
      ox_stubs = Hashtbl.create 16;
      ox_stub_ranges = [];
      ox_residue = [];
      ox_kept = Hashtbl.create 16;
      ox_stub_count = 0;
      ox_round = round;
      ox_cut = cut;
      ox_gc_span = None }
  in
  Imap.iter
    (fun entry fid -> if in_doomed ctx entry then Hashtbl.replace ctx.ox_old_entry_fid entry fid)
    t.view.entry_fid;
  ctx

(* The rule for a doomed pointer no frame map or stub translates: keep the
   function's doomed ranges mapped at their own addresses, as round
   residue the reaper frees once nothing reaches them. Their only rewrite
   is cross-function entry targets into other doomed text, which move to
   the desired entries. Idempotent per fid. *)
let keep t ctx fid =
  let ranges = List.filter (fun (s, _) -> in_doomed ctx s) t.view.resident.(fid) in
  if ranges <> [] && not (Hashtbl.mem ctx.ox_kept fid) then begin
    Hashtbl.replace ctx.ox_kept fid ranges;
    let mem = t.proc.Proc.mem in
    let own = range_set ranges in
    List.iter
      (fun r ->
        iter_code mem r (fun addr instr ->
            match Instr.static_target instr with
            | Some tgt when in_doomed ctx tgt && not (in_ranges own tgt) -> (
              match Hashtbl.find_opt ctx.ox_old_entry_fid tgt with
              | Some callee ->
                Addr_space.write_code mem addr (Instr.with_target instr (ctx.ox_desired callee))
              | None -> ())
            | Some _ | None -> ()))
      ranges;
    ctx.ox_residue <-
      { rs_fid = fid; rs_round = ctx.ox_round; rs_ranges = ranges } :: ctx.ox_residue
  end

(* Where a doomed value held by data or surviving code points now: an entry
   to its desired entry (so a function kept for one thread's parked frames
   never captures calls that belong to the live version), a block start
   through its function's frame map, and anything else stays put, its
   function kept. *)
let map_doomed_value t ctx v =
  match Hashtbl.find_opt ctx.ox_old_entry_fid v with
  | Some fid -> ctx.ox_desired fid
  | None -> (
    match Addr_space.fid_of_addr t.proc.Proc.mem v with
    | None -> v
    | Some fid -> (
      let mapped =
        Option.bind (Hashtbl.find_opt ctx.ox_fms fid) (fun fm -> Frame_map.block_new_start fm v)
      in
      match mapped with
      | Some d -> d
      | None ->
        keep t ctx fid;
        v))

exception Unstubbable

(* The compensation stub for a PC that lands mid-block between exact map
   points: re-execute the remainder of the old block (static targets
   relocated out of the doomed region), then jump to the mapped successor
   block in the new text. The tail of the old block re-establishes
   block-local state — that is the compensation — and the appended jump
   hands over at a block boundary, where the frame map is always exact.
   Returns [None] (the caller keeps the function) when the old bytes cannot
   be read, a target cannot be relocated, or the fallthrough block has no
   mapping. *)
let build_stub t ctx (fm : Frame_map.t) (site : Frame_map.block_site) addr =
  match Hashtbl.find_opt ctx.ox_stubs addr with
  | Some base -> Some base
  | None -> (
    ctx.ox_cut "osr_stub";
    let mem = t.proc.Proc.mem in
    try
      let rev_instrs = ref [] in
      let a = ref addr in
      while !a < site.Frame_map.bs_old_end do
        match Addr_space.read_code mem !a with
        | None -> raise Unstubbable
        | Some i ->
          rev_instrs := i :: !rev_instrs;
          a := !a + Instr.size i
      done;
      let reloc i =
        match Instr.static_target i with
        | None -> i
        | Some tgt ->
          if not (in_doomed ctx tgt) then i
          else (
            match Hashtbl.find_opt ctx.ox_old_entry_fid tgt with
            | Some callee -> Instr.with_target i (ctx.ox_desired callee)
            | None -> (
              match Frame_map.block_new_start fm tgt with
              | Some n -> Instr.with_target i n
              | None -> raise Unstubbable))
      in
      let instrs = List.rev_map reloc !rev_instrs in
      (match instrs with [] -> raise Unstubbable | _ :: _ -> ());
      let closed =
        let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
        match last instrs with
        (* A trailing conditional branch still needs the fallthrough. *)
        | Instr.Jump _ | Instr.JumpInd _ | Instr.Ret | Instr.Halt -> instrs
        | _ -> (
          match Frame_map.block_new_start fm site.Frame_map.bs_old_end with
          | Some n -> instrs @ [ Instr.Jump n ]
          | None -> raise Unstubbable)
      in
      let bytes = List.fold_left (fun acc i -> acc + Instr.size i) 0 closed in
      let base = Addr_space.reserve_code mem (bytes + 8) in
      let cursor = ref base in
      List.iter
        (fun i ->
          Addr_space.write_code mem !cursor i;
          cursor := !cursor + Instr.size i)
        closed;
      ctx.ox_stub_ranges <-
        { Addr_space.sr_start = base; sr_end = base + bytes; sr_fid = fm.Frame_map.fm_fid }
        :: ctx.ox_stub_ranges;
      ctx.ox_residue <-
        { rs_fid = fm.Frame_map.fm_fid;
          rs_round = ctx.ox_round;
          rs_ranges = [ (base, base + bytes) ] }
        :: ctx.ox_residue;
      Hashtbl.replace ctx.ox_stubs addr base;
      ctx.ox_stub_count <- ctx.ox_stub_count + 1;
      Some base
    with Unstubbable -> None)

(* Migrate one code pointer held by a thread (PC, return address, saved
   callee entry, scratch register): an entry goes to its desired entry, an
   exact map hit is rewritten in place, a mid-block PC goes through a
   compensation stub, and anything else stays put, its function kept. *)
let resolve_pointer t ctx addr =
  if not (in_doomed ctx addr) then addr
  else begin
    ctx.ox_cut "osr_map";
    match Hashtbl.find_opt ctx.ox_old_entry_fid addr with
    | Some fid -> ctx.ox_desired fid
    | None -> (
      match Addr_space.fid_of_addr t.proc.Proc.mem addr with
      | None -> addr (* untracked; the post-GC verifier will catch it *)
      | Some fid -> (
        let mapped =
          match Hashtbl.find_opt ctx.ox_fms fid with
          | None -> None
          | Some fm -> (
            match Frame_map.resolve fm addr with
            | Frame_map.Exact n -> Some n
            | Frame_map.Mid_block site -> build_stub t ctx fm site addr
            | Frame_map.Unmapped -> None)
        in
        match mapped with
        | Some d -> d
        | None ->
          keep t ctx fid;
          addr))
  end

(* Register migration for one paused thread. Two rules:
   - a register holding a doomed function entry (a function pointer created
     before the replacement, awaiting its CallInd or Store) is moved to the
     desired entry;
   - a scratch register about to be consumed by an indirect transfer
     (JumpInd/CallInd reached from the PC before the register is
     redefined — the jump-table and indirect-call dispatch windows) is
     resolved like a PC.
   Ordinary integers colliding with a doomed entry are indistinguishable
   from pointers (same class of risk as the data-word scan); the address
   ranges involved make collisions vanishingly unlikely in practice. *)
let migrate_registers t ctx (thread : Thread.t) =
  let regs = thread.Thread.regs in
  Array.iteri
    (fun i v ->
      match Hashtbl.find_opt ctx.ox_old_entry_fid v with
      | Some fid -> regs.(i) <- ctx.ox_desired fid
      | None -> ())
    regs;
  let written = Array.make (Array.length regs) false in
  let mem = t.proc.Proc.mem in
  let pc = ref thread.Thread.pc and stop = ref false in
  while not !stop do
    match Addr_space.read_code mem !pc with
    | None -> stop := true
    | Some instr ->
      (match instr with
      | Instr.JumpInd r | Instr.CallInd r ->
        if (not written.(r)) && in_doomed ctx regs.(r) then
          regs.(r) <- resolve_pointer t ctx regs.(r)
      | _ -> ());
      (match instr with
      | Instr.Alu (_, d, _, _)
      | Instr.Alui (_, d, _, _)
      | Instr.Movi (d, _)
      | Instr.Load (d, _, _)
      | Instr.FpCreate (d, _)
      | Instr.VtLoad (d, _, _)
      | Instr.Rand (d, _) -> written.(d) <- true
      | _ -> ());
      if Instr.is_control_flow instr then stop := true
      else pc := !pc + Instr.size instr
  done

(* On-stack replacement proper: rewrite every running thread's PC, frame
   return addresses and saved callee entries into the surviving text, then
   index the round's stubs. Returns the number of frames/PCs rewritten. *)
let migrate_threads t ctx =
  let migrated = ref 0 in
  Array.iter
    (fun (thread : Thread.t) ->
      if Thread.is_running thread then begin
        ctx.ox_cut "osr_frame";
        migrate_registers t ctx thread;
        let pc' = resolve_pointer t ctx thread.Thread.pc in
        if pc' <> thread.Thread.pc then begin
          thread.Thread.pc <- pc';
          incr migrated
        end;
        List.iter
          (fun (frame : Thread.frame) ->
            let touched = ref false in
            let r' = resolve_pointer t ctx frame.Thread.ret_addr in
            if r' <> frame.Thread.ret_addr then begin
              frame.Thread.ret_addr <- r';
              touched := true
            end;
            let c' = resolve_pointer t ctx frame.Thread.callee_entry in
            if c' <> frame.Thread.callee_entry then begin
              frame.Thread.callee_entry <- c';
              touched := true
            end;
            if !touched then incr migrated)
          (Thread.live_frames thread)
      end)
    t.proc.Proc.threads;
  (match ctx.ox_stub_ranges with
  | [] -> ()
  | ranges -> Addr_space.add_sym_ranges t.proc.Proc.mem ranges);
  !migrated

(* Sweep the whole surviving code map for static targets into the doomed
   region and redirect them. Covers prior rounds' residue (whose calls were
   resolved to the retiring version's entries when built), C0/any-version
   call sites the offline table missed, and FpCreate sites whose static
   operand names a retiring entry. Sites are redirected in address order
   (the code map's own order): one may [keep] its target's function, which
   appends residue. *)
let redirect_code_references t ctx =
  let mem = t.proc.Proc.mem in
  Codemap.fold
    (fun addr instr acc ->
      let tgt = Instr.target instr in
      if tgt >= 0 && in_doomed ctx tgt && not (in_doomed ctx addr) then
        (addr, instr, tgt) :: acc
      else acc)
    mem.Addr_space.code []
  |> List.rev
  |> List.iter (fun (addr, instr, tgt) ->
         let d = map_doomed_value t ctx tgt in
         if d <> tgt then Addr_space.write_code mem addr (Instr.with_target instr d))

(* Scan every initialized data word for values inside the doomed region and
   rewrite them: jump-table entries, and stored function-pointer values —
   including ones stashed in TLS at run time, which no init-address walk
   would find. Words registered as jump-table words of a retiring version
   are additionally classified as inherited (this round's residue still
   dispatches through them; they drain with it). A plain integer colliding
   with a doomed code address would be rewritten too — the same accepted
   risk class as the original jump-table patching. Returns
   (words patched, newly inherited word addresses). *)
let patch_data_words t ctx =
  let mem = t.proc.Proc.mem in
  let words =
    Ocolos_util.Itbl.fold
      (fun a v acc -> if in_doomed ctx v then (a, v) :: acc else acc)
      mem.Addr_space.data []
  in
  let patched = ref 0 and inherited = ref [] in
  List.iter
    (fun (a, v) ->
      if Iset.mem a t.view.table_addrs && (not (inherited_mem t a)) && not (int_mem a !inherited)
      then inherited := a :: !inherited;
      let d = map_doomed_value t ctx v in
      if d <> v then begin
        Addr_space.write_data mem a d;
        incr patched
      end)
    words;
  (!patched, !inherited)

(* ---- unmapping and residue GC ---- *)

(* Unmap every instruction in [rs] — calling [each] just before each one
   goes — and drop the symbol ranges that start inside them. Returns the
   bytes freed. *)
let unmap t ~each rs =
  let mem = t.proc.Proc.mem in
  let bytes = List.fold_left (fun acc r -> acc + Addr_space.remove_run mem ~each r) 0 rs in
  let set = range_set rs in
  Addr_space.remove_sym_ranges mem ~pred:(fun sr -> in_ranges set sr.Addr_space.sr_start);
  bytes

(* Reap residue (stubs and kept text) that no thread can reach anymore —
   reachability is PCs, return addresses, saved callee entries and register
   values of running threads (registers conservatively retain: a scratch
   register may legitimately hold a residue block address mid-dispatch).
   Inherited jump-table words whose round has fully drained go with it,
   and the reaped ranges leave the view's symbols, so the live binary
   names only mapped text. Returns (bytes freed, reaped code ranges). *)
let reap_residue t ~cut =
  let mem = t.proc.Proc.mem in
  let live =
    live_frames_and_pcs t
    @ (Array.to_list t.proc.Proc.threads
      |> List.concat_map (fun (th : Thread.t) ->
             if Thread.is_running th then Array.to_list th.Thread.regs else []))
  in
  let v = t.view in
  let keep, reap = List.partition (fun r -> holds r live) v.residue in
  (* Liveness is transitive: a stub may jump into text a later round kept,
     so residue referenced by code that will stay mapped must stay too.
     Mutually-dead residue may still die together — only references from
     surviving code promote. *)
  let keep = ref keep and reap = ref reap in
  let continue_ = ref true in
  while !continue_ && !reap <> [] do
    continue_ := false;
    let dying = range_set (List.concat_map (fun r -> r.rs_ranges) !reap) in
    let held =
      Codemap.fold
        (fun addr instr acc ->
          let tgt = Instr.target instr in
          if tgt >= 0 && in_ranges dying tgt && not (in_ranges dying addr) then tgt :: acc
          else acc)
        mem.Addr_space.code []
    in
    let promoted, dead = List.partition (fun r -> holds r held) !reap in
    if promoted <> [] then begin
      keep := !keep @ promoted;
      reap := dead;
      continue_ := true
    end
  done;
  let keep = !keep and reap = !reap in
  let bytes = ref 0 in
  List.iter
    (fun r ->
      cut "gc_reap";
      bytes := !bytes + unmap t ~each:ignore r.rs_ranges)
    reap;
  let rounds_alive = List.map (fun r -> r.rs_round) keep in
  let keep_inh, reap_inh =
    List.partition (fun (rnd, _) -> int_mem rnd rounds_alive) v.inherited
  in
  let init_addrs = ref v.init_addrs and table_addrs = ref v.table_addrs in
  List.iter
    (fun (_, addrs) ->
      List.iter
        (fun a ->
          Addr_space.remove_data mem a;
          init_addrs := Iset.remove a !init_addrs;
          table_addrs := Iset.remove a !table_addrs;
          bytes := !bytes + 8)
        addrs)
    reap_inh;
  let reaped fid (r : Binary.range) =
    List.exists
      (fun rs ->
        rs.rs_fid = fid
        && List.exists (fun (s, e) -> s = r.Binary.r_start && e = s + r.Binary.r_size) rs.rs_ranges)
      reap
  in
  let current =
    match reap with
    | [] -> v.current
    | _ :: _ ->
      { v.current with
        Binary.symbols =
          Array.map
            (fun (s : Binary.func_sym) ->
              let fid = s.Binary.fs_fid in
              { s with
                Binary.fs_ranges = List.filter (fun r -> not (reaped fid r)) s.Binary.fs_ranges })
            v.current.Binary.symbols }
  in
  t.view <-
    { v with
      current;
      residue = keep;
      inherited = keep_inh;
      init_addrs = !init_addrs;
      table_addrs = !table_addrs };
  (!bytes, List.concat_map (fun r -> r.rs_ranges) reap)

let reap t = fst (reap_residue t ~cut:ignore)

exception Dangling_pointer of string

(* Safety check after GC: no reachable code pointer may reference freed
   code. Scans v-tables, thread PCs/frames, patched call sites, every code
   address the block engine holds (cached blocks, per-thread resume memos)
   and — because true OSR retires whole versions — every static target in
   the surviving code map. With [freed = []] the scan runs in global mode:
   every scanned pointer must be mapped, the CI smoke test's whole-process
   audit. A pointer's label is built only once it has failed. *)
let verify_no_dangling t ~freed =
  let mem = t.proc.Proc.mem in
  let suspect = match freed with [] -> fun _ -> true | l -> in_ranges (range_set l) in
  let dangling addr = suspect addr && not (Codemap.mem mem.Addr_space.code addr) in
  let dangle what addr =
    raise (Dangling_pointer (Fmt.str "%s references freed code at 0x%x" what addr))
  in
  let check what addr = if dangling addr then dangle (what ()) addr in
  Array.iter
    (fun (vid, slot, _) ->
      check
        (fun () -> Fmt.str "vtable %d slot %d" vid slot)
        (Addr_space.read_data mem (Addr_space.vtable_base mem vid + slot)))
    t.vtable_slots;
  List.iter (check (fun () -> "thread stack/pc")) (live_frames_and_pcs t);
  Array.iter
    (fun (site, _, _) ->
      match Addr_space.read_code mem site with
      | Some (Instr.Call target) -> check (fun () -> Fmt.str "call site 0x%x" site) target
      | Some _ | None -> ())
    t.offline_sites;
  List.iter
    (fun (label, addr) -> check (fun () -> "engine " ^ label) addr)
    (Proc.engine_code_pointers t.proc);
  (* The code sweep runs in address order, so it reports the lowest
     failing site. *)
  Codemap.iter
    (fun addr instr ->
      let target = Instr.target instr in
      if target >= 0 && dangling target then dangle (Fmt.str "instr at 0x%x" addr) target)
    mem.Addr_space.code

(* ---- the two shared steps ---- *)

type round = {
  number : int;
  doomed : (int * int) list;
  vtable_patched : int;
  sites_patched : int;
  stack_live : int;
  frames : int;
  stubs : int;
  kept : int;
  inherited_words : int list;
  ctx : ctx;
}

(* [replace.gc] spans the end of [migrate] and most of [retire]; whichever
   step an exception escapes closes it the way [Trace.span] would. *)
let in_gc_span sp f =
  match f () with
  | x -> x
  | exception e ->
    Trace.set_attr sp "error" (Trace.S (Printexc.to_string e));
    Trace.close_span sp;
    raise e

let migrate t ~doomed ~desired ~fms ~cut =
  let mem = t.proc.Proc.mem in
  (* V-tables first, so the data scan never sees a slot as a doomed
     value. *)
  let vt_patched = ref 0 in
  Trace.span "replace.vtable_patch" (fun sp ->
      Array.iter
        (fun (vid, slot, fid) ->
          cut "vtable_patch";
          let addr = Addr_space.vtable_base mem vid + slot in
          let cur = Addr_space.read_data mem addr in
          let want = desired fid in
          if cur <> want then begin
            Addr_space.write_data mem addr want;
            incr vt_patched
          end)
        t.vtable_slots;
      Trace.set_attr sp "patched" (Trace.I !vt_patched));
  t.rounds <- t.rounds + 1;
  let ctx = make_ctx t ~doomed ~fms ~desired ~round:t.rounds ~cut in
  (* Direct calls in stack-live functions (or all, under the ablation
     flag), plus any site still targeting the doomed text. *)
  let live = stack_live_fids t in
  let sites_patched = ref 0 in
  Trace.span "replace.call_patch" (fun sp ->
      Array.iter
        (fun (site, owner, callee) ->
          cut "call_patch";
          match Codemap.find_default mem.Addr_space.code site ~default:Predecode.unmapped with
          | Instr.Call cur
            when t.patch_all_direct_calls || Hashtbl.mem live owner || in_doomed ctx cur ->
            let want = desired callee in
            if cur <> want then begin
              Addr_space.write_code mem site (Instr.Call want);
              incr sites_patched
            end
          | _ -> ())
        t.offline_sites;
      Trace.set_attr sp "stack_live_funcs" (Trace.I (Hashtbl.length live));
      Trace.set_attr sp "patched" (Trace.I !sites_patched));
  (* Frames, code and data that still point into the doomed text. *)
  let frames, inherited_words =
    if doomed = [] then (0, [])
    else
      let sp = Trace.open_span "replace.gc" in
      ctx.ox_gc_span <- sp;
      in_gc_span sp (fun () ->
          let frames = migrate_threads t ctx in
          Proc.notify_threads_migrated t.proc;
          redirect_code_references t ctx;
          let tables_patched, inherited = patch_data_words t ctx in
          Trace.set_attr sp "table_entries_patched" (Trace.I tables_patched);
          (frames, inherited))
  in
  { number = ctx.ox_round;
    doomed;
    vtable_patched = !vt_patched;
    sites_patched = !sites_patched;
    stack_live = Hashtbl.length live;
    frames;
    stubs = ctx.ox_stub_count;
    kept = Hashtbl.length ctx.ox_kept;
    inherited_words;
    ctx }

let retire t round =
  if round.doomed = [] then 0
  else begin
    let ctx = round.ctx in
    let sp = ctx.ox_gc_span in
    let freed, bytes =
      in_gc_span sp (fun () ->
          (* Unmap the retired text immediately — no trampolines, no pinned
             C0 — except what the round kept, which is residue now. *)
          let kept = range_set (Hashtbl.fold (fun _ rs acc -> rs @ acc) ctx.ox_kept []) in
          let freed = List.filter (fun (s, _) -> not (in_ranges kept s)) round.doomed in
          let unmapped = unmap t ~each:(fun () -> ctx.ox_cut "gc_unmap") freed in
          t.view <- { t.view with residue = ctx.ox_residue @ t.view.residue };
          let reaped_bytes, reaped = reap_residue t ~cut:ctx.ox_cut in
          let bytes = unmapped + reaped_bytes in
          Trace.set_attr sp "frames_migrated" (Trace.I round.frames);
          Trace.set_attr sp "osr_stubs" (Trace.I round.stubs);
          Trace.set_attr sp "copied_funcs" (Trace.I round.kept);
          Trace.set_attr sp "bytes_freed" (Trace.I bytes);
          (freed @ reaped, bytes))
    in
    Trace.close_span sp;
    ctx.ox_cut "verify";
    Trace.span "replace.verify" (fun _ -> verify_no_dangling t ~freed);
    bytes
  end
