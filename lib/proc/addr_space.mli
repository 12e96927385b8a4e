(** The address space of a simulated process.

    Code and data live in separate spaces: instruction memory maps byte
    addresses to decoded instructions; data memory is word-addressed.
    OCOLOS mutates the code map when injecting optimized code and extends
    the symbol index so address->function resolution covers the injected
    region. *)

type sym_range = { sr_start : int; sr_end : int; sr_fid : int }

(** Open undo journal; see {!begin_journal}. *)
type journal

type t = {
  code : Ocolos_isa.Instr.t Ocolos_util.Codemap.t;  (** byte address -> instruction *)
  data : int Ocolos_util.Itbl.t;  (** word address -> value; absent reads as 0 *)
  vtable_addr : int array;  (** vid -> base address in data memory *)
  mutable sym_index : sym_range array;
  mutable code_bytes : int;
  mutable next_map_base : int;
  mutable journal : journal option;
  mutable code_watchers : (int -> int -> unit) list;
      (** observers of every code-map mutation; see {!add_code_watcher} *)
}

(** Register a code-write watcher. Each watcher fires on every code-map
    mutation — {!write_code}, an effective {!remove_code}, and each code
    entry replayed by {!rollback_journal} — with the byte span
    [start, len) the mutation dirties: the wider of the old and new
    encodings at the keyed address, so a write whose encoding overlays
    neighbouring instructions reports the full overlap. The execution
    engines use this as their cache-invalidation feed; several engines may
    watch the same address space at once. *)
val add_code_watcher : t -> (int -> int -> unit) -> unit

val read_data : t -> int -> int
val write_data : t -> int -> int -> unit

(** Journaled deletion of a data word (absent reads as 0). OCOLOS uses this
    to reap inherited jump-table words once the residue reading them has
    drained. *)
val remove_data : t -> int -> unit
val read_code : t -> int -> Ocolos_isa.Instr.t option
val write_code : t -> int -> Ocolos_isa.Instr.t -> unit
val remove_code : t -> int -> unit

(** Start recording an undo log: every subsequent code/data mutation saves
    the previous contents, and the symbol index, code byte count and mmap
    cursor are snapshotted. Raises [Invalid_argument] if a journal is
    already open. *)
val begin_journal : t -> unit

(** Discard the open journal, keeping all mutations. Returns the number of
    journaled mutations. *)
val commit_journal : t -> int

(** Undo every journaled mutation (most recent first) and restore the
    symbol index, code byte count and mmap cursor to their
    [begin_journal]-time values. Returns the number of mutations undone. *)
val rollback_journal : t -> int

val journaling : t -> bool

val add_sym_ranges : t -> sym_range list -> unit
val remove_sym_ranges : t -> pred:(sym_range -> bool) -> unit

(** Function owning a code address, via the symbol index. *)
val fid_of_addr : t -> int -> int option

(** Independent copy, for shadow execution: no write to either space is
    seen by the other; the code map's pages are shared copy-on-write. The
    copy has no open journal and no watchers. *)
val copy : t -> t

(** Map a binary image: copy code, initialize globals and v-tables, index
    symbols. *)
val load : Ocolos_binary.Binary.t -> t

(** Reserve fresh page-aligned code address space (an anonymous executable
    mmap). Returns the base address. *)
val reserve_code : t -> int -> int

val vtable_base : t -> int -> int
val code_instr_count : t -> int
