(** Machine-code emission: linearize an IR program under a layout.

    A two-pass assembler. Pass 1 chooses terminator encodings from the block
    order (a fallthrough needs no instruction; a conditional whose
    fallthrough is displaced needs an extra jump) and assigns byte
    addresses. Pass 2 resolves block and function addresses, materializes
    jump tables into the global data region and builds the symbol table. *)

val default_text_base : int
val default_globals_base : int
val func_alignment : int

val negate_cond : Ocolos_isa.Instr.cond -> Ocolos_isa.Instr.cond

type emitted = {
  binary : Binary.t;
  func_entry : int array;  (** fid -> entry address; [-1] if not emitted *)
  block_addr : int array array;
      (** fid -> bid -> address; [[||]] for a function not emitted *)
  order : int array;  (** [binary]'s instruction addresses, ascending *)
}

(** [emit ~name program layout] assembles [program] under [layout].

    [extern_entry] supplies entry addresses for functions referenced but not
    present in [layout] (the BOLT path emits only hot functions and resolves
    calls to cold functions back into the original text). [emit_vtables]
    controls whether v-table images are produced (the BOLT merge path builds
    its own). Raises [Failure] if a referenced function has no address and
    {!Layout.Invalid} on malformed layouts. *)
val emit :
  ?text_base:int ->
  ?globals_base:int ->
  ?extern_entry:(int -> int option) ->
  ?section_name:string ->
  ?emit_vtables:bool ->
  name:string ->
  Ocolos_isa.Ir.program ->
  Layout.t ->
  emitted

(** Emit with the source-order layout (the unoptimized "original" binary). *)
val emit_default :
  ?text_base:int -> ?globals_base:int -> name:string -> Ocolos_isa.Ir.program -> emitted
