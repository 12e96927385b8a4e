(* Executable images.

   A binary is a set of sections holding machine code (address -> instruction,
   with byte-accurate sizes), a symbol table mapping functions to their code
   ranges, v-table images to be materialized in data memory at load time, and
   a global data region. BOLTed binaries carry both the original code
   (renamed bolt.org.text, left at its original addresses) and the optimized
   code in a new .text section at higher addresses, exactly as described in
   Section II-D of the paper. *)

open Ocolos_isa
module Codemap = Ocolos_util.Codemap

type range = { r_start : int; r_size : int }

let range_contains r addr = addr >= r.r_start && addr < r.r_start + r.r_size

type func_sym = {
  fs_fid : int;
  fs_name : string;
  fs_entry : int;
  fs_ranges : range list; (* hot range first; cold split range second if any *)
}

let sym_size s = List.fold_left (fun acc r -> acc + r.r_size) 0 s.fs_ranges

type section = { sec_name : string; sec_base : int; sec_size : int }

type vtable = {
  vt_id : int;
  vt_addr : int; (* base address in data memory *)
  vt_entries : int array; (* code addresses of the methods *)
}

type t = {
  name : string;
  sections : section list;
  code : Instr.t Codemap.t; (* iterates in ascending address order *)
  symbols : func_sym array; (* indexed by fid *)
  vtables : vtable array; (* indexed by vid *)
  globals_base : int;
  globals_words : int;
  global_init : (int * int) list; (* absolute data address, value *)
  entry : int; (* code address of the program entry point *)
  debug : (int * int) Codemap.t; (* addr -> (fid, bid); ground truth *)
}

let find_instr b addr = Codemap.find_opt b.code addr

let instr_count b = Codemap.length b.code

let text_bytes b = Codemap.fold (fun _ i acc -> acc + Instr.size i) b.code 0

(* Map a code address to the function whose range contains it. *)
let func_of_addr b addr =
  let n = Array.length b.symbols in
  let rec scan i =
    if i >= n then None
    else
      let s = b.symbols.(i) in
      if List.exists (fun r -> range_contains r addr) s.fs_ranges then Some s else scan (i + 1)
  in
  scan 0

(* A function's code range [sr_start, sr_end), as the sorted range index
   holds it. *)
type sym_range = { sr_start : int; sr_end : int; sr_fid : int }

(* Sorted by [sr_start]. *)
type addr_index = sym_range array

let index_of_ranges ranges =
  let arr = Array.of_list ranges in
  Array.sort (fun a b -> Int.compare a.sr_start b.sr_start) arr;
  arr

let sym_ranges b =
  Array.to_list b.symbols
  |> List.concat_map (fun s ->
         List.map
           (fun r -> { sr_start = r.r_start; sr_end = r.r_start + r.r_size; sr_fid = s.fs_fid })
           s.fs_ranges)

let build_addr_index b = index_of_ranges (sym_ranges b)

(* Owning fid of [addr], or -1: the allocation-free form of
   [index_lookup], for per-instruction callers. *)
let index_fid (idx : addr_index) addr =
  let lo = ref 0 and hi = ref (Array.length idx - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = idx.(mid) in
    if addr < r.sr_start then hi := mid - 1
    else if addr >= r.sr_end then lo := mid + 1
    else begin
      found := r.sr_fid;
      lo := !hi + 1
    end
  done;
  !found

let index_lookup idx addr = match index_fid idx addr with -1 -> None | fid -> Some fid

let find_symbol_by_name b name =
  let n = Array.length b.symbols in
  let rec scan i =
    if i >= n then None
    else if b.symbols.(i).fs_name = name then Some b.symbols.(i)
    else scan (i + 1)
  in
  scan 0

let section_named b name = List.find_opt (fun s -> s.sec_name = name) b.sections

(* Direct call sites: (site address, callee entry address). OCOLOS parses
   these offline to shorten the stop-the-world phase (Section IV). *)
let direct_call_sites b =
  Codemap.fold
    (fun addr i acc -> match i with Instr.Call target -> (addr, target) :: acc | _ -> acc)
    b.code []
  |> List.rev

(* Instructions of one function in address order, as (addr, instr) pairs. *)
let func_instrs b fid =
  let s = b.symbols.(fid) in
  List.concat_map
    (fun r ->
      let acc = ref [] in
      let addr = ref r.r_start in
      while !addr < r.r_start + r.r_size do
        match Codemap.find_opt b.code !addr with
        | Some i ->
          acc := (!addr, i) :: !acc;
          addr := !addr + Instr.size i
        | None -> addr := !addr + 1 (* alignment padding *)
      done;
      List.rev !acc)
    s.fs_ranges

let pp_summary fmt b =
  Fmt.pf fmt "binary %s: %d functions, %d vtables, %d instrs, %d text bytes, entry 0x%x"
    b.name (Array.length b.symbols) (Array.length b.vtables) (instr_count b) (text_bytes b)
    b.entry
