(* Tier-1 miscompile containment: pre-commit translation validation.

   After BOLT has produced a candidate layout, re-derive what the optimized
   text *should* look like from the input binary and check the emitted code
   against it, block by block, under the layout permutation recorded in the
   frame maps. The checks mirror the pipeline's passes so a rejection names
   the pass whose invariant broke:

   - [bb_reorder]: every old block's terminator is consistent under the
     block permutation — branch polarity/targets match (possibly in the
     negated-and-swapped encoding the emitter uses when the taken successor
     is laid next), elided jumps really fall through to the right block,
     materialized jumps hit the right block start.
   - [func_reorder]: the old-entry -> new-entry translation is injective
     and agrees with the frame maps.
   - [peephole]: block bodies are instruction-identical modulo no-op
     deletion and static-target relocation.
   - [emit]: the new text decodes everywhere a mapped block lives (a
     dropped block is a decode hole), every relocated call / fp-create
     target is exactly the entry the translation predicts (a stale
     relocation is not), and every jump-table word lands on a block start
     of the owning function.
   - [frame_map]: block sites cover the old CFG exactly and the
     instruction-granular map has both ends on instruction boundaries
     inside their block, injectively — except that a peephole-removed
     no-op legitimately forwards to the next surviving instruction's new
     PC, and a block emitted empty (all-no-op body, elided fallthrough)
     legitimately shares its successor's new start.

   Deliberate blind spot, by design: jump-table words are checked for
   *validity* (each word is some block start of the function), not for
   *correspondence* (word i is the right block). A permutation of valid
   table words — [bolt.miscompile.jump_table] — passes Tier 1 and must be
   caught by the Tier-2 shadow checker at run time. *)

open Ocolos_isa
open Ocolos_binary
module Itbl = Ocolos_util.Itbl

type rejection = { rj_fid : int; rj_check : string; rj_reason : string }

type report = {
  rp_funcs : int; (* functions validated *)
  rp_blocks : int; (* blocks compared *)
  rp_instrs : int; (* new-text instructions checked *)
  rp_rejections : rejection list;
}

let checks = [ "bb_reorder"; "func_reorder"; "peephole"; "emit"; "frame_map" ]
let ok r = r.rp_rejections = []

let rejected_fids r =
  List.filter_map (fun rj -> if rj.rj_fid >= 0 then Some rj.rj_fid else None) r.rp_rejections
  |> List.sort_uniq compare

let check_rejections r check =
  List.length (List.filter (fun rj -> rj.rj_check = check) r.rp_rejections)

(* Bail out of one function's walk at the first structural divergence; the
   rejection has already been recorded. *)
exception Stop

(* Position of [x] in the ascending array [a], or -1. *)
let index_of (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v = x then found := mid else if v < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* [index_of a x] searched from a cursor first: [!cursor] or just past it,
   then a binary search; a hit moves the cursor. Exact points arrive in
   ascending old-PC order and, within a block, in emission order, so the
   answer is nearly always at or next to the previous one — no
   branch-mispredicting search per point. *)
let index_near (a : int array) cursor x =
  let c = !cursor and n = Array.length a in
  let i =
    if c < n && Array.unsafe_get a c = x then c
    else if c + 1 < n && Array.unsafe_get a (c + 1) = x then c + 1
    else index_of a x
  in
  if i >= 0 then cursor := i;
  i

(* [Frame_map.containing_index] from a cursor: exact points arrive in
   ascending old-PC order, so the containing block is nearly always the
   cursor's or the next one; a hit moves the cursor. *)
let inside (blocks : Frame_map.block_site array) i addr =
  i < Array.length blocks
  &&
  let s = Array.unsafe_get blocks i in
  s.Frame_map.bs_old_start <= addr && addr < s.Frame_map.bs_old_end

let block_near (fm : Frame_map.t) cursor addr =
  let blocks = fm.Frame_map.fm_blocks and c = !cursor in
  let i =
    if inside blocks c addr then c
    else if inside blocks (c + 1) addr then c + 1
    else Frame_map.containing_index fm addr
  in
  if i >= 0 then cursor := i;
  i

let run ?extern_entry ?cfg_of ~(binary : Binary.t) (result : Bolt.result) =
  let extern_entry =
    match extern_entry with
    | Some f -> f
    | None -> fun fid -> Some binary.Binary.symbols.(fid).Binary.fs_entry
  in
  let new_text = result.Bolt.new_text in
  let rejections = ref [] in
  let reject fid check fmt =
    Fmt.kstr
      (fun s -> rejections := { rj_fid = fid; rj_check = check; rj_reason = s } :: !rejections)
      fmt
  in
  let stop fid check fmt =
    Fmt.kstr
      (fun s ->
        rejections := { rj_fid = fid; rj_check = check; rj_reason = s } :: !rejections;
        raise Stop)
      fmt
  in
  let translated = Itbl.create 64 in
  List.iter (fun (o, n) -> Itbl.replace translated o n) result.Bolt.translation;
  let hot = Itbl.create 64 in
  List.iter (fun f -> Itbl.replace hot f ()) result.Bolt.hot_fids;
  (* Where a call/fp-create of [callee] must point in the new text: its new
     entry when the callee was re-emitted this run, its externally resolved
     (current) entry otherwise. *)
  let expected_entry callee =
    if callee < 0 || callee >= Array.length binary.Binary.symbols then None
    else if Itbl.mem hot callee then
      Itbl.find_opt translated binary.Binary.symbols.(callee).Binary.fs_entry
    else extern_entry callee
  in
  let new_data = Itbl.create 64 in
  List.iter (fun (a, v) -> Itbl.replace new_data a v) new_text.Binary.global_init;
  let read_new a = Binary.find_instr new_text a in
  (* Translation injectivity: two functions sharing a new entry is a broken
     global order. *)
  (let seen = Itbl.create 64 in
   List.iter
     (fun (o, n) ->
       match Itbl.find_opt seen n with
       | Some o' ->
         reject (-1) "func_reorder" "old entries 0x%x and 0x%x both translate to 0x%x" o' o n
       | None -> Itbl.replace seen n o)
     result.Bolt.translation);
  (* Injectivity bookkeeping for the exact maps, shared by every function
     of the run: a new PC on an instruction of the new text is keyed by its
     index in [new_order], the emitted text's ascending addresses (found
     from a cursor — no hashing, no per-function table), and [claimed]
     holds the run-wide number of the exact point that last claimed the
     slot. Points are numbered in walk order, so a claim by the current
     function is one numbered at or above its first point, and names its
     old PC.
     New PCs off every instruction go to a per-function fallback table. *)
  let new_order = result.Bolt.new_order in
  let claimed = Array.make (Array.length new_order) (-1) in
  let points = ref 0 in
  let funcs = ref 0 in
  let blocks = ref 0 in
  let instrs = ref 0 in
  let cfg_of = match cfg_of with Some f -> f | None -> Cfg.reconstructor binary in
  let validate_func (fid, (fm : Frame_map.t)) =
    incr funcs;
    let sym = binary.Binary.symbols.(fid) in
    match cfg_of fid with
    | exception Cfg.Unsupported msg ->
      reject fid "emit" "old CFG reconstruction failed: %s" msg
    | rc ->
      let nblocks = Array.length rc.Cfg.rc_block_addr in
      (* ---- frame-map structure ---- *)
      if fm.Frame_map.fm_fid <> fid then
        reject fid "frame_map" "frame map carries fid %d" fm.Frame_map.fm_fid;
      if fm.Frame_map.fm_old_entry <> sym.Binary.fs_entry then
        reject fid "frame_map" "fm_old_entry 0x%x is not the function entry 0x%x"
          fm.Frame_map.fm_old_entry sym.Binary.fs_entry;
      (match Itbl.find_opt translated sym.Binary.fs_entry with
      | Some n when n = fm.Frame_map.fm_new_entry -> ()
      | Some n ->
        reject fid "func_reorder" "translation says new entry 0x%x, frame map says 0x%x" n
          fm.Frame_map.fm_new_entry
      | None -> reject fid "func_reorder" "optimized function has no translation entry");
      let site_of_bid = Array.make nblocks None in
      let new_starts = Itbl.create nblocks in
      Array.iter
        (fun (bs : Frame_map.block_site) ->
          if bs.Frame_map.bs_bid < 0 || bs.Frame_map.bs_bid >= nblocks then
            reject fid "frame_map" "block site for unknown bid %d" bs.Frame_map.bs_bid
          else site_of_bid.(bs.Frame_map.bs_bid) <- Some bs;
          (* A block emitted empty (all-no-op body, elided fallthrough)
             shares its successor's new start, so sharing is legitimate;
             the per-block walk validates each site's content anyway. *)
          Itbl.replace new_starts bs.Frame_map.bs_new_start bs.Frame_map.bs_bid)
        fm.Frame_map.fm_blocks;
      for bid = 0 to nblocks - 1 do
        match site_of_bid.(bid) with
        | None -> reject fid "frame_map" "block %d of the old CFG has no frame-map site" bid
        | Some bs ->
          if
            bs.Frame_map.bs_old_start <> rc.Cfg.rc_block_addr.(bid)
            || bs.Frame_map.bs_old_end <> rc.Cfg.rc_block_end.(bid)
          then
            reject fid "frame_map" "block %d old range [0x%x,0x%x) disagrees with CFG [0x%x,0x%x)"
              bid bs.Frame_map.bs_old_start bs.Frame_map.bs_old_end rc.Cfg.rc_block_addr.(bid)
              rc.Cfg.rc_block_end.(bid)
      done;
      (match site_of_bid.(0) with
      | Some bs when bs.Frame_map.bs_new_start <> fm.Frame_map.fm_new_entry ->
        reject fid "func_reorder" "entry block emitted at 0x%x, not at the new entry 0x%x"
          bs.Frame_map.bs_new_start fm.Frame_map.fm_new_entry
      | _ -> ());
      let new_start_of bid =
        match site_of_bid.(bid) with Some bs -> Some bs.Frame_map.bs_new_start | None -> None
      in
      (* ---- per-block linear walk of the emitted code ---- *)
      let walk (blk : Ir.block) (bs : Frame_map.block_site) =
        incr blocks;
        let pc = ref bs.Frame_map.bs_new_start in
        let next check =
          match read_new !pc with
          | Some i -> i
          | None -> stop fid check "decode hole at 0x%x in block %d (dropped block?)" !pc blk.Ir.bid
        in
        let advance i =
          incr instrs;
          pc := !pc + Instr.size i
        in
        let need bid' =
          match new_start_of bid' with
          | Some a -> a
          | None -> raise Stop (* already rejected by the frame-map coverage check *)
        in
        List.iter
          (fun si ->
            match si with
            | Ir.Plain i when Peephole.is_noop_instr i -> (
              match read_new !pc with
              | Some j when Instr.equal j i -> advance j
              | _ -> () (* peephole deleted it *))
            | Ir.Plain i ->
              let j = next "emit" in
              if Instr.equal j i then advance j
              else
                stop fid "peephole" "body mismatch at 0x%x in block %d: expected %s, found %s"
                  !pc blk.Ir.bid (Instr.to_string i) (Instr.to_string j)
            | Ir.SCallInd r -> (
              match next "emit" with
              | Instr.CallInd r' when r' = r -> advance (Instr.CallInd r')
              | j ->
                stop fid "peephole" "expected indirect call at 0x%x, found %s" !pc
                  (Instr.to_string j))
            | Ir.SCall callee -> (
              match (next "emit", expected_entry callee) with
              | Instr.Call a, Some e when a = e -> advance (Instr.Call a)
              | Instr.Call a, Some e ->
                stop fid "emit"
                  "stale call relocation at 0x%x: callee %d must resolve to 0x%x, found 0x%x"
                  !pc callee e a
              | Instr.Call _, None ->
                stop fid "emit" "call at 0x%x targets unresolvable function %d" !pc callee
              | j, _ ->
                stop fid "peephole" "expected call at 0x%x, found %s" !pc (Instr.to_string j))
            | Ir.SFpCreate (r, callee) -> (
              match (next "emit", expected_entry callee) with
              | Instr.FpCreate (r', a), Some e when r' = r && a = e ->
                advance (Instr.FpCreate (r', a))
              | Instr.FpCreate (r', a), Some e when r' = r ->
                stop fid "emit"
                  "stale fp-create relocation at 0x%x: function %d must resolve to 0x%x, found \
                   0x%x"
                  !pc callee e a
              | j, _ ->
                stop fid "peephole" "expected fp-create at 0x%x, found %s" !pc
                  (Instr.to_string j)))
          blk.Ir.body;
        match blk.Ir.term with
        | Ir.Tjump t -> (
          let nt = need t in
          if !pc = nt then () (* jump elided: target laid out next *)
          else
            match next "emit" with
            | Instr.Jump a when a = nt -> incr instrs
            | Instr.Jump a ->
              stop fid "bb_reorder" "jump at 0x%x targets 0x%x, block %d now starts at 0x%x" !pc
                a t nt
            | j ->
              stop fid "bb_reorder"
                "fallthrough from block %d to block %d not materialized at 0x%x (found %s)"
                blk.Ir.bid t !pc (Instr.to_string j))
        | Ir.Tbranch (c, r, taken, fall) -> (
          let ntk = need taken and nfl = need fall in
          match next "emit" with
          | Instr.Branch (c', r', a) when r' = r ->
            incr instrs;
            let after = !pc + Instr.size (Instr.Branch (c', r', a)) in
            let continues_to target =
              after = target
              || (match read_new after with Some (Instr.Jump j) -> j = target | _ -> false)
            in
            if c' = c && a = ntk && continues_to nfl then ()
            else if c' = Emit.negate_cond c && a = nfl && continues_to ntk then ()
            else
              stop fid "bb_reorder"
                "branch at 0x%x inconsistent under the layout permutation: %s r%d -> 0x%x \
                 (taken block %d at 0x%x, fallthrough block %d at 0x%x)"
                !pc
                (Fmt.str "%a" Instr.pp_cond c')
                r a taken ntk fall nfl
          | j ->
            stop fid "bb_reorder" "expected conditional branch at 0x%x, found %s" !pc
              (Instr.to_string j))
        | Ir.Tjump_table (sel, targets) -> (
          match next "emit" with
          | Instr.Alui (Instr.Add, s, sel', base) when s = Ir.scratch_reg && sel' = sel ->
            advance (Instr.Alui (Instr.Add, s, sel', base));
            (match next "emit" with
            | Instr.Load (d, b, 0) when d = Ir.scratch_reg && b = Ir.scratch_reg ->
              advance (Instr.Load (d, b, 0))
            | j ->
              stop fid "bb_reorder" "expected jump-table load at 0x%x, found %s" !pc
                (Instr.to_string j));
            (match next "emit" with
            | Instr.JumpInd s' when s' = Ir.scratch_reg -> incr instrs
            | j ->
              stop fid "bb_reorder" "expected indirect jump at 0x%x, found %s" !pc
                (Instr.to_string j));
            (* Each word must be a block start of this function — validity,
               not correspondence: see the blind-spot note above. *)
            Array.iteri
              (fun i _ ->
                match Itbl.find_opt new_data (base + i) with
                | Some v when Itbl.mem new_starts v -> ()
                | Some v ->
                  stop fid "emit"
                    "jump-table word %d at data 0x%x holds 0x%x, not a block start of fid %d" i
                    (base + i) v fid
                | None -> stop fid "emit" "jump-table word %d at data 0x%x missing" i (base + i))
              targets
          | j ->
            stop fid "bb_reorder" "expected jump-table idiom at 0x%x, found %s" !pc
              (Instr.to_string j))
        | Ir.Tret -> (
          match next "emit" with
          | Instr.Ret -> incr instrs
          | j -> stop fid "bb_reorder" "expected ret at 0x%x, found %s" !pc (Instr.to_string j))
        | Ir.Thalt -> (
          match next "emit" with
          | Instr.Halt -> incr instrs
          | j -> stop fid "bb_reorder" "expected halt at 0x%x, found %s" !pc (Instr.to_string j))
      in
      Array.iter
        (fun (blk : Ir.block) ->
          match site_of_bid.(blk.Ir.bid) with
          | None -> ()
          | Some bs -> ( try walk blk bs with Stop -> ()))
        rc.Cfg.rc_func.Ir.blocks;
      (* ---- instruction-granular map ---- *)
      (* Walked in ascending old-PC order — the order the frame map
         carries its exact points in — for a deterministic rejection
         order. *)
      let olds = fm.Frame_map.fm_exact_old and news = fm.Frame_map.fm_exact_new in
      if Array.length news <> Array.length olds then
        reject fid "frame_map" "exact map has %d old PCs but %d new PCs" (Array.length olds)
          (Array.length news);
      let npoints = min (Array.length olds) (Array.length news) in
      let first = !points in
      points := first + npoints;
      let seen_off = Itbl.create 8 in
      (* The old PC that already claimed [new_pc], or -1; [j] is [new_pc]'s
         index in [new_order], or -1. *)
      let seen j new_pc =
        if j < 0 then Itbl.find_default seen_off new_pc ~default:(-1)
        else
          let c = claimed.(j) in
          if c >= first then olds.(c - first) else -1
      in
      (* Claim [new_pc] for exact point [k]. *)
      let claim j new_pc k =
        if j < 0 then Itbl.replace_int seen_off new_pc olds.(k) else claimed.(j) <- first + k
      in
      (* Old instruction boundaries come from this function's own sorted
         decoding, not a probe of the whole binary's code table; the
         binary answers only for PCs outside the function. *)
      let old_cursor = ref 0 and new_cursor = ref 0 and block_cursor = ref 0 in
      let old_boundary pc =
        index_near rc.Cfg.rc_instr_addrs old_cursor pc >= 0
        || Ocolos_util.Codemap.mem binary.Binary.code pc
      in
      let forwards pc =
        (* An old instruction with no new-text counterpart forwards its map
           entry to the next surviving new PC: peephole-removed no-ops and
           elided fallthrough jumps. *)
        match Binary.find_instr binary pc with
        | Some (Instr.Jump _) -> true
        | Some i -> Peephole.is_noop_instr i
        | None -> false
      in
      for k = 0 to npoints - 1 do
        let old_pc = olds.(k) and new_pc = news.(k) in
        if k > 0 && olds.(k - 1) >= old_pc then
          reject fid "frame_map" "exact map not strictly ascending at old 0x%x" old_pc;
        (* Injective, except for forwarding: of all old PCs sharing one
           new PC, at most one survives in the new text — the rest were
           removed (and forward to where execution continues). *)
        let j = index_near new_order new_cursor new_pc in
        (match seen j new_pc with
        | -1 -> claim j new_pc k
        | _ when forwards old_pc -> ()
        | prev_old when forwards prev_old -> claim j new_pc k
        | _ ->
          reject fid "frame_map" "exact map not injective: two old PCs land on new 0x%x" new_pc);
        if not (old_boundary old_pc) then
          reject fid "frame_map" "exact point old 0x%x is not an instruction boundary" old_pc;
        (* [new_order] is the new text's instruction addresses. *)
        if j < 0 then
          reject fid "frame_map"
            "exact point 0x%x -> 0x%x lands off an instruction boundary in the new text" old_pc
            new_pc;
        match block_near fm block_cursor old_pc with
        | -1 -> reject fid "frame_map" "exact point old 0x%x outside every mapped block" old_pc
        | b ->
          let bs = fm.Frame_map.fm_blocks.(b) in
          if new_pc < bs.Frame_map.bs_new_start then
            reject fid "frame_map" "exact point 0x%x -> 0x%x precedes its block's new start 0x%x"
              old_pc new_pc bs.Frame_map.bs_new_start
      done
  in
  List.iter validate_func result.Bolt.frame_maps;
  { rp_funcs = !funcs;
    rp_blocks = !blocks;
    rp_instrs = !instrs;
    rp_rejections = List.rev !rejections }

let pp_rejection ppf rj =
  if rj.rj_fid >= 0 then Fmt.pf ppf "[%s] fid %d: %s" rj.rj_check rj.rj_fid rj.rj_reason
  else Fmt.pf ppf "[%s] %s" rj.rj_check rj.rj_reason

let pp_report ppf r =
  Fmt.pf ppf "validated %d funcs, %d blocks, %d instrs@." r.rp_funcs r.rp_blocks r.rp_instrs;
  List.iter
    (fun check ->
      let n = check_rejections r check in
      Fmt.pf ppf "  %-12s %s@." check (if n = 0 then "ok" else Fmt.str "%d rejection(s)" n))
    checks;
  List.iter (fun rj -> Fmt.pf ppf "  %a@." pp_rejection rj) r.rp_rejections
