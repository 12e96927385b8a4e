(** Executable images.

    A binary holds machine code (address -> instruction with byte-accurate
    sizes), a symbol table mapping functions to code ranges, v-table images
    materialized into data memory at load time, and a global data region.
    BOLTed binaries carry both the original code (the [bolt.org.text]
    section, left at its original addresses) and optimized code in a new
    [.text] section at higher addresses (paper Section II-D). *)

type range = { r_start : int; r_size : int }

val range_contains : range -> int -> bool

type func_sym = {
  fs_fid : int;
  fs_name : string;
  fs_entry : int;
  fs_ranges : range list;  (** hot range first; cold-split range second *)
}

val sym_size : func_sym -> int

type section = { sec_name : string; sec_base : int; sec_size : int }

type vtable = {
  vt_id : int;
  vt_addr : int;  (** base address in data memory *)
  vt_entries : int array;  (** code addresses of the methods *)
}

type t = {
  name : string;
  sections : section list;
  code : Ocolos_isa.Instr.t Ocolos_util.Codemap.t;
      (** address -> instruction; iterates in ascending address order *)
  symbols : func_sym array;  (** indexed by fid *)
  vtables : vtable array;  (** indexed by vid *)
  globals_base : int;
  globals_words : int;
  global_init : (int * int) list;  (** (absolute data address, value) *)
  entry : int;
  debug : (int * int) Ocolos_util.Codemap.t;  (** addr -> (fid, bid) ground truth *)
}

val find_instr : t -> int -> Ocolos_isa.Instr.t option
val instr_count : t -> int
val text_bytes : t -> int

(** Linear-scan address->function resolution (tests, small uses). *)
val func_of_addr : t -> int -> func_sym option

(** A function's code range [\[sr_start, sr_end)]. *)
type sym_range = { sr_start : int; sr_end : int; sr_fid : int }

(** Sorted range index for fast address->fid lookup: ranges by ascending
    [sr_start], searched by binary search. *)
type addr_index = sym_range array

(** The index of a set of ranges, in any order. *)
val index_of_ranges : sym_range list -> addr_index

(** Every range of the symbol table, hot range first per function. *)
val sym_ranges : t -> sym_range list

(** [index_of_ranges (sym_ranges b)]. *)
val build_addr_index : t -> addr_index
val index_lookup : addr_index -> int -> int option

(** [index_lookup] without the option: the owning fid, or [-1]. *)
val index_fid : addr_index -> int -> int

val find_symbol_by_name : t -> string -> func_sym option
val section_named : t -> string -> section option

(** All direct call sites as (site address, callee entry address), in address
    order. OCOLOS parses these offline to shorten the stop-the-world phase. *)
val direct_call_sites : t -> (int * int) list

(** Instructions of one function in address order. *)
val func_instrs : t -> int -> (int * Ocolos_isa.Instr.t) list

val pp_summary : Format.formatter -> t -> unit
