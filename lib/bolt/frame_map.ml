(* Per-function frame maps for on-stack replacement.

   A frame map records, for one BOLTed function, how addresses of the old
   code version correspond to addresses in the freshly emitted version, so
   that OCOLOS can migrate live frames (return addresses, paused PCs) into
   C_{i+1} instead of keeping the old text alive until they drain.

   The map is assembled block by block, at one or two granularities:

   - [block_boundary] pairs each old block start with its new start —
     always available, derived directly from the block-reorder pass's
     address mapping.
   - [exact_instr] (with [~exact:true]) extends the map to instruction
     granularity by positionally pairing the old and new instruction
     sequences of each block. Peephole-removed no-ops are skipped on the
     old side (their address maps to the next surviving instruction —
     exact, since a no-op has no effect), and instructions that differ
     only in a statically relocated target (calls, branches, jumps, fp
     materializations) still pair. The walk stops at the first real
     divergence; addresses past it stay block-granular and fall back to a
     compensation stub.

   A PC that resolves [Exact] can be rewritten in place. A PC inside a
   mapped block but between exact points resolves [Mid_block]: the caller
   builds a compensation stub that re-establishes block-local state (by
   running the remainder of the old block verbatim) before entering the
   new code. Anything else is [Unmapped] — a map-lookup miss, which the
   replacement transaction treats as a fault. *)

open Ocolos_isa

type block_site = {
  bs_bid : int;
  bs_old_start : int;
  bs_old_end : int; (* exclusive *)
  bs_new_start : int;
}

type t = {
  fm_fid : int;
  fm_old_entry : int;
  fm_new_entry : int;
  fm_blocks : block_site array; (* sorted by bs_old_start *)
  fm_exact_old : int array; (* exact points' old pcs, strictly ascending *)
  fm_exact_new : int array; (* new pc of each fm_exact_old entry *)
}

type resolution = Exact of int | Mid_block of block_site | Unmapped

(* Old block start -> new block start. The coarsest map; [exact_instr]
   refines it. *)
let block_boundary ~old_instrs ~new_instrs =
  if Array.length old_instrs = 0 || Array.length new_instrs = 0 then []
  else [ (fst old_instrs.(0), fst new_instrs.(0)) ]

(* Two instructions occupy the same program point if they are identical or
   differ only in a statically relocated target. *)
let pairable o n =
  Instr.equal o n
  ||
  match (Instr.static_target o, Instr.static_target n) with
  | Some _, Some tn -> Instr.equal (Instr.with_target o tn) n
  | _ -> false

(* Instruction-granular positional pairing of one block's old and new code.
   Invariant: at each step the next new instruction is the continuation of
   the program point at the next old instruction, so pairing their
   addresses is an exact migration. *)
let exact_instr ~old_instrs ~new_instrs ~old_end ~block_new =
  let n_old = Array.length old_instrs and n_new = Array.length new_instrs in
  let pairs = ref [] in
  let stop = ref false in
  let i = ref 0 and j = ref 0 in
  while (not !stop) && !i < n_old do
    let old_addr, old_i = old_instrs.(!i) in
    if !j < n_new && pairable old_i (snd new_instrs.(!j)) then begin
      pairs := (old_addr, fst new_instrs.(!j)) :: !pairs;
      incr i;
      incr j
    end
    else if Peephole.is_noop_instr old_i then begin
      (* Removed by peephole: the program point survives as the next
         emitted instruction (or the fallthrough block if the no-op
         closed the block). *)
      (match if !j < n_new then Some (fst new_instrs.(!j)) else block_new old_end with
      | Some a -> pairs := (old_addr, a) :: !pairs
      | None -> ());
      incr i
    end
    else begin
      (* A trailing unconditional jump whose emitted form was elided (the
         reordered layout made its target the fallthrough): being *at* the
         jump is the same program point as being at its target. *)
      (match old_i with
      | Instr.Jump t -> (
        match block_new t with Some a -> pairs := (old_addr, a) :: !pairs | None -> ())
      | _ -> ());
      stop := true
    end
  done;
  !pairs

let build ~exact ~fid ~old_entry ~new_entry ~blocks ~read_old ~new_instrs () =
  let sites =
    Array.map
      (fun (bid, old_start, old_end, new_start) ->
        { bs_bid = bid; bs_old_start = old_start; bs_old_end = old_end; bs_new_start = new_start })
      blocks
  in
  Array.sort (fun a b -> compare a.bs_old_start b.bs_old_start) sites;
  let block_new_tbl = Ocolos_util.Itbl.create (Array.length sites) in
  Array.iter (fun s -> Ocolos_util.Itbl.replace block_new_tbl s.bs_old_start s.bs_new_start) sites;
  let block_new addr = Ocolos_util.Itbl.find_opt block_new_tbl addr in
  (* Exact points are sorted by old PC here, at emission, so consumers
     binary-search and walk them in order. Each block's pairs are sorted
     on their own: sites are in old-address order and both granularities
     pair only PCs of their own block, so the concatenation is sorted,
     and overlapping blocks would fall back to one global sort. The sorts
     are stable: among pairs for one old PC, the block boundary's from the
     first block that maps it is kept. *)
  let by_old (a, _) (b, _) = Int.compare a b in
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s ->
              (* Raw old code of the block, by size-accurate walk. *)
              let olds = ref [] in
              let a = ref s.bs_old_start in
              (try
                 while !a < s.bs_old_end do
                   match read_old !a with
                   | Some i ->
                     olds := (!a, i) :: !olds;
                     a := !a + Instr.size i
                   | None -> raise Exit
                 done
               with Exit -> ());
              let old_instrs = Array.of_list (List.rev !olds) in
              let news = new_instrs s.bs_bid in
              let found =
                block_boundary ~old_instrs ~new_instrs:news
                ::
                (if exact then
                   [ exact_instr ~old_instrs ~new_instrs:news ~old_end:s.bs_old_end ~block_new ]
                 else [])
              in
              let ps = Array.make (List.fold_left (fun n l -> n + List.length l) 0 found) (0, 0) in
              let k = ref 0 in
              List.iter
                (List.iter (fun p ->
                     ps.(!k) <- p;
                     incr k))
                found;
              Array.stable_sort by_old ps;
              ps)
            sites))
  in
  let n = Array.length pairs in
  let sorted = ref true in
  for k = 1 to n - 1 do
    if fst pairs.(k - 1) > fst pairs.(k) then sorted := false
  done;
  if not !sorted then Array.stable_sort by_old pairs;
  let first k = k = 0 || fst pairs.(k - 1) <> fst pairs.(k) in
  let len = ref 0 in
  for k = 0 to n - 1 do
    if first k then incr len
  done;
  let olds = Array.make !len 0 and news = Array.make !len 0 in
  let len = ref 0 in
  Array.iteri
    (fun k (o, nw) ->
      if first k then begin
        olds.(!len) <- o;
        news.(!len) <- nw;
        incr len
      end)
    pairs;
  { fm_fid = fid;
    fm_old_entry = old_entry;
    fm_new_entry = new_entry;
    fm_blocks = sites;
    fm_exact_old = olds;
    fm_exact_new = news }

let block_new_start t addr =
  (* binary search by old start; hit only on exact block starts *)
  let lo = ref 0 and hi = ref (Array.length t.fm_blocks - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = t.fm_blocks.(mid) in
    if s.bs_old_start = addr then found := mid
    else if s.bs_old_start < addr then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some t.fm_blocks.(!found).bs_new_start

let containing_index t addr =
  let lo = ref 0 and hi = ref (Array.length t.fm_blocks - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = t.fm_blocks.(mid) in
    if addr < s.bs_old_start then hi := mid - 1
    else if addr >= s.bs_old_end then lo := mid + 1
    else found := mid
  done;
  !found

let containing_block t addr =
  match containing_index t addr with -1 -> None | i -> Some t.fm_blocks.(i)

(* Index of [addr] among the exact points' old PCs, or -1. *)
let exact_index t addr =
  let olds = t.fm_exact_old in
  let lo = ref 0 and hi = ref (Array.length olds - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let o = olds.(mid) in
    if o = addr then found := mid else if o < addr then lo := mid + 1 else hi := mid - 1
  done;
  !found

let resolve t addr =
  match exact_index t addr with
  | i when i >= 0 -> Exact t.fm_exact_new.(i)
  | _ -> ( match containing_block t addr with Some s -> Mid_block s | None -> Unmapped)

let exact_points t = Array.length t.fm_exact_old
