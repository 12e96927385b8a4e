(* CFG reconstruction from machine code (BOLT's disassembly front-end).

   Recovers a function's control-flow graph by recursive traversal from its
   entry point: linear decode until a terminator, discovering new leaders
   from branch targets, splitting provisional blocks when a later target
   lands inside one, and recovering jump-table targets from the data image.
   The result is a symbolic {!Ocolos_isa.Ir.func} (re-emittable under any
   layout) plus address maps used to attach profile counts. *)

open Ocolos_isa
open Ocolos_binary

type reconstructed = {
  rc_fid : int;
  rc_func : Ir.func; (* bid 0 is the entry block *)
  rc_block_addr : int array; (* bid -> original start address *)
  rc_block_end : int array; (* bid -> original end address (exclusive) *)
  rc_counts : int array; (* bid -> execution count (0 before attach) *)
  rc_edges : (int * int, int) Hashtbl.t; (* (src bid, dst bid) -> count *)
  rc_instr_count : int;
  rc_instr_addrs : int array; (* every decoded instruction's address, ascending *)
}

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* Mutable block under construction. *)
type mblock = {
  mutable start : int;
  mutable instrs : (int * Instr.t) list; (* reversed *)
  mutable term : mterm;
  mutable ended : int; (* end address, exclusive; 0 while decoding *)
}

and mterm =
  | Mnone (* still decoding *)
  | Mfall of int (* falls into block at address *)
  | Mjump of int
  | Mbranch of Instr.cond * Instr.reg * int * int (* taken addr, fall addr *)
  | Mtable of Instr.reg * int array (* selector, target addresses *)
  | Mret
  | Mhalt

(* Recover jump-table targets: read words starting at [base] while they are
   valid instruction addresses belonging to this function. *)
let read_jump_table ~read_data ~valid_target base =
  let rec go i acc =
    match read_data (base + i) with
    | Some v when valid_target v -> go (i + 1) (v :: acc)
    | Some _ | None -> List.rev acc
  in
  match go 0 [] with
  | [] -> unsupported "empty jump table at data 0x%x" base
  | targets -> Array.of_list targets

let reconstruct ~fid ~entry ~(read_code : int -> Instr.t option)
    ~(read_data : int -> int option) ~(in_function : int -> bool) ~fid_of_entry ~fname =
  let blocks : (int, mblock) Hashtbl.t = Hashtbl.create 32 in
  let owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* instr addr -> block start *)
  let runs = ref [] in
  (* one list per decode run: the addresses it decoded, descending *)
  let worklist = Queue.create () in
  let enqueue addr = Queue.add addr worklist in
  let valid_target addr = in_function addr && read_code addr <> None in
  (* Split the block owning [addr] so that [addr] becomes a leader. *)
  let split_at addr =
    let bstart = Hashtbl.find owner addr in
    if bstart = addr then ()
    else begin
      let b = Hashtbl.find blocks bstart in
      let instrs = List.rev b.instrs in
      let before, after = List.partition (fun (a, _) -> a < addr) instrs in
      (match after with
      | (a, _) :: _ when a = addr -> ()
      | _ -> unsupported "target 0x%x lands mid-instruction in %s" addr fname);
      let nb =
        { start = addr; instrs = List.rev after; term = b.term; ended = b.ended }
      in
      b.instrs <- List.rev before;
      b.term <- Mfall addr;
      b.ended <- addr;
      Hashtbl.replace blocks addr nb;
      List.iter (fun (a, _) -> Hashtbl.replace owner a addr) after
    end
  in
  let decode_from leader =
    if Hashtbl.mem blocks leader then ()
    else if Hashtbl.mem owner leader then split_at leader
    else begin
      let b = { start = leader; instrs = []; term = Mnone; ended = 0 } in
      Hashtbl.replace blocks leader b;
      let run = ref [] in
      let pc = ref leader in
      let continue = ref true in
      while !continue do
        (* Stop if we ran into already-decoded code. Every decoded
           instruction is in [owner], and an address owns itself iff it is
           a leader, so one probe distinguishes fresh code / an existing
           leader (fallthrough edge) / the middle of a decoded block (make
           the join point a leader by splitting, then fall into it). This
           loop runs once per instruction per campaign — in BOLT's
           front-end and again in the Tier-1 validator — so the probe
           count matters. *)
        match if !pc = leader then None else Hashtbl.find_opt owner !pc with
        | Some bstart ->
          if bstart <> !pc then split_at !pc;
          b.term <- Mfall !pc;
          b.ended <- !pc;
          continue := false
        | None -> (
          match read_code !pc with
          | None -> unsupported "decode fell off mapped code at 0x%x in %s" !pc fname
          | Some instr ->
            (* [add], not [replace]: the loop only reaches fresh addresses
               (the probe above stopped otherwise), and [split_at] uses
               [replace] when it reassigns ownership. *)
            Hashtbl.add owner !pc b.start;
            run := !pc :: !run;
            b.instrs <- (!pc, instr) :: b.instrs;
            let next = !pc + Instr.size instr in
            (* Terminators become symbolic block terminators: drop the raw
               instruction from the body so it is not re-emitted with its
               stale absolute target. *)
            let pop_terminator () =
              match b.instrs with
              | _ :: rest -> b.instrs <- rest
              | [] -> assert false
            in
            (match instr with
            | Instr.Branch (c, r, target) ->
              if not (valid_target target) then
                unsupported "branch target 0x%x outside %s" target fname;
              pop_terminator ();
              b.term <- Mbranch (c, r, target, next);
              b.ended <- next;
              enqueue target;
              enqueue next;
              continue := false
            | Instr.Jump target ->
              if not (valid_target target) then
                unsupported "jump target 0x%x outside %s" target fname;
              pop_terminator ();
              b.term <- Mjump target;
              b.ended <- next;
              enqueue target;
              continue := false
            | Instr.JumpInd sel_reg ->
              (* Recognize the emitter's jump-table idiom:
                 Alui(Add, s, sel, base); Load(s, s, 0); JumpInd s. *)
              (match b.instrs with
              | (_, Instr.JumpInd _) :: (_, Instr.Load (s1, s2, 0)) :: (_, Instr.Alui (Instr.Add, s3, sel, base)) :: rest
                when s1 = sel_reg && s2 = sel_reg && s3 = sel_reg ->
                let targets = read_jump_table ~read_data ~valid_target base in
                b.instrs <- rest;
                b.term <- Mtable (sel, targets);
                b.ended <- next;
                Array.iter enqueue targets;
                continue := false
              | _ -> unsupported "unrecognized indirect jump at 0x%x in %s" !pc fname)
            | Instr.Ret ->
              pop_terminator ();
              b.term <- Mret;
              b.ended <- next;
              continue := false
            | Instr.Halt ->
              pop_terminator ();
              b.term <- Mhalt;
              b.ended <- next;
              continue := false
            | Instr.Nop | Instr.Alu _ | Instr.Alui _ | Instr.Movi _ | Instr.Load _
            | Instr.Store _ | Instr.Call _ | Instr.CallInd _ | Instr.FpCreate _
            | Instr.VtLoad _ | Instr.Rand _ | Instr.TxMark ->
              pc := next))
      done;
      runs := !run :: !runs
    end
  in
  enqueue entry;
  while not (Queue.is_empty worklist) do
    decode_from (Queue.pop worklist)
  done;
  (* Stable block ids: entry first, then by ascending address. *)
  let starts =
    Hashtbl.fold (fun s _ acc -> s :: acc) blocks []
    |> List.filter (fun s -> s <> entry)
    |> List.sort compare
  in
  let order = Array.of_list (entry :: starts) in
  let bid_of = Hashtbl.create 32 in
  Array.iteri (fun bid s -> Hashtbl.replace bid_of s bid) order;
  let to_ir_block bid =
    let mb = Hashtbl.find blocks order.(bid) in
    let body =
      List.rev_map
        (fun (_, instr) ->
          match instr with
          | Instr.Call target -> (
            match fid_of_entry target with
            | Some callee -> Ir.SCall callee
            | None -> unsupported "call to unknown function 0x%x in %s" target fname)
          | Instr.CallInd r -> Ir.SCallInd r
          | Instr.FpCreate (r, target) -> (
            match fid_of_entry target with
            | Some callee -> Ir.SFpCreate (r, callee)
            | None -> unsupported "fp-create of unknown function 0x%x in %s" target fname)
          | i -> Ir.Plain i)
        mb.instrs
    in
    let bid_at addr =
      match Hashtbl.find_opt bid_of addr with
      | Some b -> b
      | None -> unsupported "no block at 0x%x in %s" addr fname
    in
    let term =
      match mb.term with
      | Mnone -> unsupported "unterminated block at 0x%x in %s" mb.start fname
      | Mfall a | Mjump a -> Ir.Tjump (bid_at a)
      | Mbranch (c, r, taken, fall) -> Ir.Tbranch (c, r, bid_at taken, bid_at fall)
      | Mtable (sel, targets) -> Ir.Tjump_table (sel, Array.map bid_at targets)
      | Mret -> Ir.Tret
      | Mhalt -> Ir.Thalt
    in
    { Ir.bid; body; term }
  in
  let nblocks = Array.length order in
  let ir_blocks = Array.init nblocks to_ir_block in
  let block_end = Array.map (fun s -> (Hashtbl.find blocks s).ended) order in
  let instr_count = Hashtbl.length owner in
  (* A decode run covers one contiguous address range no other run
     touches, so ordering the runs orders every instruction: no sort of
     the addresses themselves. Runs are never empty. *)
  let instr_addrs = Array.make instr_count 0 in
  let k = ref instr_count in
  List.iter
    (List.iter (fun a ->
         decr k;
         instr_addrs.(!k) <- a))
    (List.sort (fun r r' -> Int.compare (List.hd r') (List.hd r)) !runs);
  { rc_fid = fid;
    rc_func = { Ir.fid; fname; blocks = ir_blocks };
    rc_block_addr = order;
    rc_block_end = block_end;
    rc_counts = Array.make nblocks 0;
    rc_edges = Hashtbl.create 32;
    rc_instr_count = instr_count;
    rc_instr_addrs = instr_addrs }

(* Reconstructing from a binary image needs O(binary)-sized lookup
   structures (address index, data image, entry table). [reconstructor]
   builds them once and closes over them, so reconstructing every hot
   function of a campaign stays linear in the binary instead of
   quadratic — both BOLT's front-end and the Tier-1 validator walk whole
   function lists. *)
let reconstructor (binary : Binary.t) =
  let index = Binary.build_addr_index binary in
  let data_init = Hashtbl.create 64 in
  List.iter (fun (a, v) -> Hashtbl.replace data_init a v) binary.Binary.global_init;
  let entry_of = Hashtbl.create 256 in
  Array.iter (fun s -> Hashtbl.replace entry_of s.Binary.fs_entry s.Binary.fs_fid)
    binary.Binary.symbols;
  fun fid ->
    let sym = binary.Binary.symbols.(fid) in
    reconstruct ~fid ~entry:sym.Binary.fs_entry
      ~read_code:(fun addr -> Binary.find_instr binary addr)
      ~read_data:(fun addr -> Hashtbl.find_opt data_init addr)
      ~in_function:(fun addr -> Binary.index_lookup index addr = Some fid)
      ~fid_of_entry:(fun addr -> Hashtbl.find_opt entry_of addr)
      ~fname:sym.Binary.fs_name

(* [reconstructor] with a memo: each function is decoded at most once. The
   decoded part is immutable once built and shared by every caller; the
   profile-count fields [attach_profile] mutates are fresh per call, so one
   caller's counts never leak into another's reconstruction. BOLT and the
   Tier-1 validator share one memo per campaign: the validator re-checks
   against the very CFGs BOLT optimized instead of decoding them again. *)
let memoize (binary : Binary.t) =
  let of_fid = reconstructor binary in
  let memo = Hashtbl.create 64 in
  fun fid ->
    let r =
      match Hashtbl.find_opt memo fid with
      | Some r -> r
      | None ->
        let r = match of_fid fid with rc -> Ok rc | exception Unsupported msg -> Error msg in
        Hashtbl.add memo fid r;
        r
    in
    match r with
    | Ok rc ->
      { rc with
        rc_counts = Array.make (Array.length rc.rc_counts) 0;
        rc_edges = Hashtbl.create 32 }
    | Error msg -> raise (Unsupported msg)

(* Convenience wrapper reconstructing one function from a binary image. *)
let of_binary (binary : Binary.t) fid = reconstructor binary fid

(* Attach profile counts to a reconstructed CFG.

   Taken edges come directly from LBR branch records; fallthrough coverage
   comes from the straight-line ranges between consecutive records: walking
   a range bumps every covered block and each fallthrough edge crossed. The
   caller pre-partitions the global profile by function, passing only this
   function's records. *)
let attach_profile rc ~branches ~ranges =
  let nblocks = Array.length rc.rc_block_addr in
  (* Sorted (start, end, bid) view for binary-search address resolution. *)
  let sorted = Array.init nblocks (fun bid -> (rc.rc_block_addr.(bid), rc.rc_block_end.(bid), bid)) in
  Array.sort compare sorted;
  let block_of_addr addr =
    let lo = ref 0 and hi = ref (nblocks - 1) and found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s, e, bid = sorted.(mid) in
      if addr < s then hi := mid - 1
      else if addr >= e then lo := mid + 1
      else begin
        found := Some bid;
        lo := !hi + 1
      end
    done;
    !found
  in
  let bid_at_start = Hashtbl.create nblocks in
  Array.iteri (fun bid s -> Hashtbl.replace bid_at_start s bid) rc.rc_block_addr;
  let bump_edge src dst n =
    let key = (src, dst) in
    match Hashtbl.find_opt rc.rc_edges key with
    | Some v -> Hashtbl.replace rc.rc_edges key (v + n)
    | None -> Hashtbl.add rc.rc_edges key n
  in
  List.iter
    (fun (from_addr, to_addr, count) ->
      match (block_of_addr from_addr, Hashtbl.find_opt bid_at_start to_addr) with
      | Some src, Some dst -> bump_edge src dst count
      | _, _ -> ())
    branches;
  List.iter
    (fun (start_addr, end_addr, count) ->
      match block_of_addr start_addr with
      | None -> ()
      | Some first ->
        let rec walk bid =
          rc.rc_counts.(bid) <- rc.rc_counts.(bid) + count;
          if end_addr >= rc.rc_block_end.(bid) then
            match Hashtbl.find_opt bid_at_start rc.rc_block_end.(bid) with
            | Some nxt ->
              bump_edge bid nxt count;
              walk nxt
            | None -> ()
        in
        walk first)
    ranges

let total_count rc = Array.fold_left ( + ) 0 rc.rc_counts

let edge_count rc key = match Hashtbl.find_opt rc.rc_edges key with Some v -> v | None -> 0
