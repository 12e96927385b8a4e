(* The address space of a simulated process.

   Code and data live in separate spaces (instruction memory is a map from
   byte address to decoded instruction; data memory is word-addressed).
   OCOLOS mutates the code map at run time when it injects optimized code,
   and appends symbol ranges so that address->function resolution keeps
   working for the injected region. *)

open Ocolos_isa
open Ocolos_binary

type sym_range = { sr_start : int; sr_end : int; sr_fid : int }

(* Undo journal for transactional mutation (OCOLOS's code replacement).
   Each entry records the *previous* contents of a touched location; the
   symbol index, byte count and mmap cursor are snapshotted wholesale at
   [begin_journal] since the index is rebuilt (never mutated in place). *)
type journal_entry =
  | J_code of int * Instr.t option
  | J_data of int * int option

type journal = {
  mutable entries : journal_entry list; (* most recent first *)
  mutable n_entries : int;
  j_sym_index : sym_range array;
  j_code_bytes : int;
  j_next_map_base : int;
}

module Itbl = Ocolos_util.Itbl
module Codemap = Ocolos_util.Codemap

type t = {
  code : Instr.t Codemap.t;
  data : int Itbl.t; (* word address -> value; absent = 0 *)
  vtable_addr : int array; (* vid -> base address in data memory *)
  mutable sym_index : sym_range array; (* sorted by sr_start *)
  mutable code_bytes : int; (* total bytes of mapped code *)
  mutable next_map_base : int; (* first free code address for injection *)
  mutable journal : journal option;
  mutable code_watchers : (int -> int -> unit) list;
      (* observers of every code-map mutation (write, removal, rollback
         replay); the execution engines' invalidation feeds. Each is called
         with the byte span [start, start+len) the mutation touches — not
         just the keyed address — so a write whose encoding overlays the
         tail of one cached block and the head of the next invalidates
         every overlapping block. *)
}

let add_code_watcher t f = t.code_watchers <- f :: t.code_watchers

let notify_code_write t addr len =
  List.iter (fun f -> f addr len) t.code_watchers

let read_data t addr = Itbl.find_default t.data addr ~default:0

let write_data t addr v =
  (match t.journal with
  | None -> ()
  | Some j ->
    j.entries <- J_data (addr, Itbl.find_opt t.data addr) :: j.entries;
    j.n_entries <- j.n_entries + 1);
  Itbl.replace_int t.data addr v

(* Journaled deletion of a data word (absent reads as 0). Used by OCOLOS to
   reap inherited jump-table words once the residue reading them drains. *)
let remove_data t addr =
  match Itbl.find_opt t.data addr with
  | None -> ()
  | Some v ->
    (match t.journal with
    | None -> ()
    | Some j ->
      j.entries <- J_data (addr, Some v) :: j.entries;
      j.n_entries <- j.n_entries + 1);
    Itbl.remove t.data addr

let read_code t addr = Codemap.find_opt t.code addr

(* Journal [addr]'s previous contents [old], as the caller read them. *)
let journal_code t addr old =
  match t.journal with
  | None -> ()
  | Some j ->
    j.entries <- J_code (addr, old) :: j.entries;
    j.n_entries <- j.n_entries + 1

(* The byte span a mutation at [addr] dirties: the new encoding's bytes and
   the old one's, whichever reaches further. Watchers must see the full
   span — a 5-byte write over a 1-byte instruction also clobbers the four
   bytes after it, which may belong to other cached blocks. *)
let write_span old_instr new_instr =
  let len i = match i with Some i -> Instr.size i | None -> 1 in
  max (len old_instr) (len new_instr)

let write_code t addr instr =
  if not (Instr.valid_regs instr) then
    invalid_arg (Printf.sprintf "Addr_space.write_code: bad register operand at 0x%x" addr);
  let old = Codemap.find_opt t.code addr in
  journal_code t addr old;
  (match old with
  | Some old -> t.code_bytes <- t.code_bytes - Instr.size old
  | None -> ());
  Codemap.replace t.code addr instr;
  t.code_bytes <- t.code_bytes + Instr.size instr;
  notify_code_write t addr (write_span old (Some instr))

let remove_code t addr =
  match Codemap.find_opt t.code addr with
  | Some old as prev ->
    journal_code t addr prev;
    t.code_bytes <- t.code_bytes - Instr.size old;
    Codemap.remove t.code addr;
    notify_code_write t addr (Instr.size old)
  | None -> ()

let journaling t = t.journal <> None

let begin_journal t =
  if t.journal <> None then invalid_arg "Addr_space.begin_journal: journal already open";
  t.journal <-
    Some
      { entries = [];
        n_entries = 0;
        j_sym_index = t.sym_index;
        j_code_bytes = t.code_bytes;
        j_next_map_base = t.next_map_base }

let commit_journal t =
  match t.journal with
  | None -> invalid_arg "Addr_space.commit_journal: no open journal"
  | Some j ->
    t.journal <- None;
    j.n_entries

(* Replay the undo log most-recent-first: the oldest entry for an address
   holds its pre-transaction contents and is applied last. *)
let rollback_journal t =
  match t.journal with
  | None -> invalid_arg "Addr_space.rollback_journal: no open journal"
  | Some j ->
    t.journal <- None;
    List.iter
      (function
        | J_code (addr, Some i) ->
          let cur = Codemap.find_opt t.code addr in
          Codemap.replace t.code addr i;
          notify_code_write t addr (write_span cur (Some i))
        | J_code (addr, None) ->
          let cur = Codemap.find_opt t.code addr in
          Codemap.remove t.code addr;
          notify_code_write t addr (write_span cur None)
        | J_data (addr, Some v) -> Itbl.replace_int t.data addr v
        | J_data (addr, None) -> Itbl.remove t.data addr)
      j.entries;
    t.sym_index <- j.j_sym_index;
    t.code_bytes <- j.j_code_bytes;
    t.next_map_base <- j.j_next_map_base;
    j.n_entries

let rebuild_sym_index t ranges =
  let arr = Array.of_list ranges in
  Array.sort (fun a b -> compare a.sr_start b.sr_start) arr;
  t.sym_index <- arr

let add_sym_ranges t ranges =
  rebuild_sym_index t (ranges @ Array.to_list t.sym_index)

let remove_sym_ranges t ~pred =
  rebuild_sym_index t (List.filter (fun r -> not (pred r)) (Array.to_list t.sym_index))

(* Binary search over symbol ranges. *)
let fid_of_addr t addr =
  let idx = t.sym_index in
  let lo = ref 0 and hi = ref (Array.length idx - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = idx.(mid) in
    if addr < r.sr_start then hi := mid - 1
    else if addr >= r.sr_end then lo := mid + 1
    else begin
      found := Some r.sr_fid;
      lo := !hi + 1
    end
  done;
  !found

(* Independent copy, for shadow execution: no write to either space is
   seen by the other. The code map's pages are shared copy-on-write, so
   the copy costs a page directory, not the image. The copy starts with no
   open journal and no watchers — a clone is never mid-transaction and no
   execution engine observes it. *)
let copy t =
  { code = Codemap.copy t.code;
    data = Itbl.copy t.data;
    vtable_addr = Array.copy t.vtable_addr;
    sym_index = Array.copy t.sym_index;
    code_bytes = t.code_bytes;
    next_map_base = t.next_map_base;
    journal = None;
    code_watchers = [] }

(* Map a binary image: copy code, initialize globals and v-tables, index
   symbols. *)
let load (binary : Binary.t) =
  let t =
    { code = Codemap.create ();
      data = Itbl.create 4096;
      vtable_addr = Array.map (fun vt -> vt.Binary.vt_addr) binary.Binary.vtables;
      sym_index = [||];
      code_bytes = 0;
      next_map_base = 0;
      journal = None;
      code_watchers = [] }
  in
  Array.iter
    (fun addr -> write_code t addr (Codemap.find binary.Binary.code addr))
    binary.Binary.code_order;
  List.iter (fun (addr, v) -> write_data t addr v) binary.Binary.global_init;
  Array.iter
    (fun vt ->
      Array.iteri (fun slot target -> write_data t (vt.Binary.vt_addr + slot) target)
        vt.Binary.vt_entries)
    binary.Binary.vtables;
  let ranges =
    Array.to_list binary.Binary.symbols
    |> List.concat_map (fun s ->
           List.map
             (fun r ->
               { sr_start = r.Binary.r_start;
                 sr_end = r.Binary.r_start + r.Binary.r_size;
                 sr_fid = s.Binary.fs_fid })
             s.Binary.fs_ranges)
  in
  rebuild_sym_index t ranges;
  let max_end =
    List.fold_left
      (fun acc (s : Binary.section) -> max acc (s.Binary.sec_base + s.Binary.sec_size))
      0 binary.Binary.sections
  in
  t.next_map_base <- (max_end + 0xFFFF) land lnot 0xFFFF;
  t

(* Reserve [bytes] of fresh code address space (page-aligned), as an
   anonymous executable mmap would. *)
let reserve_code t bytes =
  let base = t.next_map_base in
  t.next_map_base <- (base + bytes + 0xFFF) land lnot 0xFFF;
  base

let vtable_base t vid = t.vtable_addr.(vid)

let code_instr_count t = Codemap.length t.code
