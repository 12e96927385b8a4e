(** The address space of a simulated process.

    Code and data live in separate spaces: instruction memory maps byte
    addresses to decoded instructions; data memory is word-addressed.
    OCOLOS mutates the code map when injecting optimized code and extends
    the symbol index so address->function resolution covers the injected
    region. *)

type sym_range = Ocolos_binary.Binary.sym_range = { sr_start : int; sr_end : int; sr_fid : int }

(** Open undo journal; see {!begin_journal}. *)
type journal

type t = {
  code : Ocolos_isa.Instr.t Ocolos_util.Codemap.t;  (** byte address -> instruction *)
  data : int Ocolos_util.Itbl.t;  (** word address -> value; absent reads as 0 *)
  vtable_addr : int array;  (** vid -> base address in data memory *)
  mutable sym_index : sym_range array;  (** sorted by [sr_start] *)
  mutable code_bytes : int;
  mutable next_map_base : int;
  mutable journal : journal option;
  mutable code_watchers : (int -> int -> unit) list;
      (** observers of every code-map mutation; see {!add_code_watcher} *)
}

(** Register a code-write watcher. Each watcher fires on every code-map
    mutation with the byte span [start, len) it dirties: once per
    {!write_code}, with the wider of the old and new encodings at the
    keyed address, so a write whose encoding overlays neighbouring
    instructions reports the full overlap; once per
    {!write_run} or {!remove_run}, with the span from the first mutated
    byte to the furthest one dirtied; and, on {!rollback_journal}, once
    per slot the restore changes, with the span writing the saved
    contents over the live ones dirties. The execution engines use this
    as their cache-invalidation feed; several engines may watch the same
    address space at once. *)
val add_code_watcher : t -> (int -> int -> unit) -> unit

val read_data : t -> int -> int
val write_data : t -> int -> int -> unit

(** Journaled deletion of a data word (absent reads as 0). OCOLOS uses this
    to reap inherited jump-table words once the residue reading them has
    drained. *)
val remove_data : t -> int -> unit
val read_code : t -> int -> Ocolos_isa.Instr.t option

(** Bind one address. Raises [Invalid_argument] for an instruction with a
    register operand out of range. *)
val write_code : t -> int -> Ocolos_isa.Instr.t -> unit

(** The whole code address range, for a run over every instruction of a
    map. *)
val all_code : int * int

(** [write_run t ~each src (s, e)] maps every instruction [src] holds in
    [\[s, e)], in ascending order, walked as a decoder would: from each
    instruction to the byte past its encoding, unmapped bytes skipped.
    [each ()] runs before every instruction and may raise, ending the run
    there. Each instruction is checked as {!write_code} checks it, and
    counts as one journaled mutation. The watchers are told once, of the
    span mutated, however the run ends. Returns the bytes mapped. *)
val write_run :
  t -> each:(unit -> unit) -> Ocolos_isa.Instr.t Ocolos_util.Codemap.t -> int * int -> int

(** [remove_run t ~each (s, e)] unmaps every instruction mapped in
    [\[s, e)], walked as {!write_run} walks its source, with the same
    [each], journal count and single notification. Returns the bytes
    unmapped. *)
val remove_run : t -> each:(unit -> unit) -> int * int -> int

(** Open a transaction. The code map is saved whole as a copy-on-write
    {!Ocolos_util.Codemap.copy} — a page directory; every data mutation
    then journals the word's previous contents, and the symbol index,
    code byte count and mmap cursor are snapshotted. Raises
    [Invalid_argument] if a journal is already open. *)
val begin_journal : t -> unit

(** Discard the open journal and its save point, keeping all mutations.
    Returns the number of journaled mutations: one per {!write_code},
    instruction a run writes or removes, and data mutation. *)
val commit_journal : t -> int

(** Restore the saved code directory in place (telling the watchers
    about every slot it changes), undo every journaled data mutation
    (most recent first), and restore the symbol index, code byte count
    and mmap cursor to their [begin_journal]-time values. Returns the
    number of mutations undone, counted as {!commit_journal} counts
    them. *)
val rollback_journal : t -> int

val journaling : t -> bool

val add_sym_ranges : t -> sym_range list -> unit
val remove_sym_ranges : t -> pred:(sym_range -> bool) -> unit

(** Function owning a code address, via the symbol index
    ({!Ocolos_binary.Binary.index_lookup}). *)
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
