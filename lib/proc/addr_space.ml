(* The address space of a simulated process.

   Code and data live in separate spaces (instruction memory is a map from
   byte address to decoded instruction; data memory is word-addressed).
   OCOLOS mutates the code map at run time when it injects optimized code,
   and appends symbol ranges so that address->function resolution keeps
   working for the injected region. *)

open Ocolos_isa
open Ocolos_binary

type sym_range = Binary.sym_range = { sr_start : int; sr_end : int; sr_fid : int }

module Itbl = Ocolos_util.Itbl
module Codemap = Ocolos_util.Codemap

(* Undo journal for transactional mutation (OCOLOS's code replacement).
   The code map is saved whole at [begin_journal]: a [Codemap.copy] shares
   every page copy-on-write, so the save point costs one page directory
   and a write during the transaction copies only the page it touches.
   Data words are journaled one entry per mutation, recording the previous
   contents. The symbol index, byte count and mmap cursor are snapshotted
   wholesale, since the index is rebuilt (never mutated in place). *)
type journal = {
  j_code : Instr.t Codemap.t; (* the code map at [begin_journal] *)
  mutable j_data : (int * int option) list; (* previous data words, most recent first *)
  mutable n_entries : int; (* code writes, code removals and data mutations *)
  j_sym_index : sym_range array;
  j_code_bytes : int;
  j_next_map_base : int;
}

type t = {
  code : Instr.t Codemap.t;
  data : int Itbl.t; (* word address -> value; absent = 0 *)
  vtable_addr : int array; (* vid -> base address in data memory *)
  mutable sym_index : sym_range array; (* sorted by sr_start *)
  mutable code_bytes : int; (* total bytes of mapped code *)
  mutable next_map_base : int; (* first free code address for injection *)
  mutable journal : journal option;
  mutable code_watchers : (int -> int -> unit) list;
      (* observers of every code-map mutation (a write, a run of writes
         or removals, each slot a rollback restores); the execution engines'
         invalidation feeds. Each is called with the byte span
         [start, start+len) the mutation touches — not just the keyed
         address — so a write whose encoding overlays the tail of one
         cached block and the head of the next invalidates every
         overlapping block. *)
}

let add_code_watcher t f = t.code_watchers <- f :: t.code_watchers

let notify_code_write t addr len =
  List.iter (fun f -> f addr len) t.code_watchers

let count_entries t n =
  match t.journal with None -> () | Some j -> j.n_entries <- j.n_entries + n

let read_data t addr = Itbl.find_default t.data addr ~default:0

let journal_data t addr old =
  match t.journal with
  | None -> ()
  | Some j ->
    j.j_data <- (addr, old) :: j.j_data;
    j.n_entries <- j.n_entries + 1

let write_data t addr v =
  (match t.journal with None -> () | Some _ -> journal_data t addr (Itbl.find_opt t.data addr));
  Itbl.replace_int t.data addr v

(* Journaled deletion of a data word (absent reads as 0). Used by OCOLOS to
   reap inherited jump-table words once the residue reading them drains. *)
let remove_data t addr =
  match Itbl.find_opt t.data addr with
  | None -> ()
  | Some _ as old ->
    journal_data t addr old;
    Itbl.remove t.data addr

let read_code t addr = Codemap.find_opt t.code addr

let unmapped = Predecode.unmapped

(* The byte span a mutation at [addr] dirties: the new encoding's bytes and
   the old one's, whichever reaches further ([unmapped] on either side
   counts one byte). Watchers must see the full span — a 5-byte write over
   a 1-byte instruction also clobbers the four bytes after it, which may
   belong to other cached blocks. *)
let write_span old_instr new_instr =
  let len i = if i == unmapped then 1 else Instr.size i in
  max (len old_instr) (len new_instr)

let check_regs addr instr =
  if not (Instr.valid_regs instr) then
    invalid_arg (Printf.sprintf "Addr_space.write_code: bad register operand at 0x%x" addr)

(* Bind [addr] to [instr], keeping [code_bytes] exact. Returns the span the
   write dirties. *)
let put_code t addr instr =
  check_regs addr instr;
  let old = Codemap.find_default t.code addr ~default:unmapped in
  if old != unmapped then t.code_bytes <- t.code_bytes - Instr.size old;
  Codemap.replace t.code addr instr;
  t.code_bytes <- t.code_bytes + Instr.size instr;
  write_span old instr

let write_code t addr instr =
  let span = put_code t addr instr in
  count_entries t 1;
  notify_code_write t addr span

let all_code = (0, Codemap.max_key + 1)

(* Walk the instructions [map] holds in [\[s, e)] as a decoder would: from
   each instruction to the byte past its encoding, skipping unmapped
   bytes. [step addr instr] mutates the code map at [addr] and returns the
   end of the span it dirtied; [each ()] runs first and may raise. However
   the walk ends, the journal counts every mutation and the watchers hear
   once, of the span from the first mutated byte to the furthest dirtied
   one. Returns the bytes of the instructions walked. Inlined, so [step]
   is a direct call. *)
let[@inline] run t ~each map (s, e) step =
  let first = ref max_int and stop = ref 0 and n = ref 0 and bytes = ref 0 in
  match
    let a = ref s in
    while !a < e do
      let addr = !a in
      let instr = Codemap.find_default map addr ~default:unmapped in
      if instr == unmapped then a := Codemap.next_key map (addr + 1)
      else begin
        each ();
        let reach = step addr instr in
        if !n = 0 then first := addr;
        incr n;
        if reach > !stop then stop := reach;
        let size = Instr.size instr in
        bytes := !bytes + size;
        a := addr + size
      end
    done
  with
  | () ->
    count_entries t !n;
    if !n > 0 then notify_code_write t !first (!stop - !first);
    !bytes
  | exception ex ->
    count_entries t !n;
    if !n > 0 then notify_code_write t !first (!stop - !first);
    raise ex

let write_run t ~each src range =
  run t ~each src range (fun addr instr -> addr + put_code t addr instr)

let remove_run t ~each range =
  run t ~each t.code range (fun addr instr ->
      t.code_bytes <- t.code_bytes - Instr.size instr;
      Codemap.remove t.code addr;
      addr + Instr.size instr)

let journaling t = t.journal <> None

let begin_journal t =
  if t.journal <> None then invalid_arg "Addr_space.begin_journal: journal already open";
  t.journal <-
    Some
      { j_code = Codemap.copy t.code;
        j_data = [];
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

(* Put the saved code directory back and tell the watchers about each slot
   it changes, with the span writing the saved contents over the live ones
   dirties; then replay the data undo log most-recent-first (the oldest
   entry for a word holds its pre-transaction value and is applied last). *)
let rollback_journal t =
  match t.journal with
  | None -> invalid_arg "Addr_space.rollback_journal: no open journal"
  | Some j ->
    t.journal <- None;
    Codemap.restore t.code ~from:j.j_code ~default:unmapped ~changed:(fun addr live saved ->
        notify_code_write t addr (write_span live saved));
    List.iter
      (function
        | addr, Some v -> Itbl.replace_int t.data addr v
        | addr, None -> Itbl.remove t.data addr)
      j.j_data;
    t.sym_index <- j.j_sym_index;
    t.code_bytes <- j.j_code_bytes;
    t.next_map_base <- j.j_next_map_base;
    j.n_entries

let rebuild_sym_index t ranges = t.sym_index <- Binary.index_of_ranges ranges

let add_sym_ranges t ranges =
  rebuild_sym_index t (ranges @ Array.to_list t.sym_index)

let remove_sym_ranges t ~pred =
  rebuild_sym_index t (List.filter (fun r -> not (pred r)) (Array.to_list t.sym_index))

let fid_of_addr t addr = Binary.index_lookup t.sym_index addr

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
  ignore (write_run t ~each:ignore binary.Binary.code all_code : int);
  List.iter (fun (addr, v) -> write_data t addr v) binary.Binary.global_init;
  Array.iter
    (fun vt ->
      Array.iteri (fun slot target -> write_data t (vt.Binary.vt_addr + slot) target)
        vt.Binary.vt_entries)
    binary.Binary.vtables;
  rebuild_sym_index t (Binary.sym_ranges binary);
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
