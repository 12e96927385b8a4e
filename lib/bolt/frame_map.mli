(** Per-function frame maps for on-stack replacement.

    A frame map records how addresses in the old code version of one BOLTed
    function correspond to addresses in the freshly emitted version, at two
    granularities: block starts (always) and individual instructions (where
    the old and new sequences provably carry the same program points). It is
    the data OCOLOS needs to rewrite live frames' return addresses and
    paused threads' PCs directly into C_{i+1}, retiring the old text
    immediately instead of keeping it alive until frames drain. *)

type block_site = {
  bs_bid : int;
  bs_old_start : int;
  bs_old_end : int;  (** exclusive *)
  bs_new_start : int;
}

type t = {
  fm_fid : int;
  fm_old_entry : int;
  fm_new_entry : int;
  fm_blocks : block_site array;  (** sorted by [bs_old_start] *)
  fm_exact_old : int array;
      (** the instruction-granular map's old PCs, strictly ascending (a
          sorted array built at emission: {!resolve} binary-searches it and
          the validator walks it in order without re-sorting) *)
  fm_exact_new : int array;  (** new PC of each [fm_exact_old] entry *)
}

(** How an old-version PC migrates:
    - [Exact new_pc]: rewrite in place.
    - [Mid_block site]: the PC is inside a mapped block but between exact
      points; a compensation stub must re-establish block-local state
      before entering the new code.
    - [Unmapped]: map-lookup miss — the replacement transaction treats
      this as a fault. *)
type resolution = Exact of int | Mid_block of block_site | Unmapped

(** A pluggable per-pass address tracker: given one block's raw old
    instruction sequence, its emitted new sequence, the block's old end
    address and the old-start -> new-start block map, returns exact
    (old pc, new pc) pairs. *)
type tracker = {
  tk_name : string;
  tk_track :
    old_instrs:(int * Ocolos_isa.Instr.t) array ->
    new_instrs:(int * Ocolos_isa.Instr.t) array ->
    old_end:int ->
    block_new:(int -> int option) ->
    (int * int) list;
}

(** Maps each old block start to its new start. *)
val block_boundary_tracker : tracker

(** Positional instruction pairing: identical instructions, instructions
    differing only in a statically relocated target, and peephole-removed
    no-ops (mapped to the next surviving instruction) all pair; the walk
    stops at the first real divergence. *)
val exact_instr_tracker : tracker

(** [[block_boundary_tracker; exact_instr_tracker]] *)
val default_trackers : tracker list

(** [build ~fid ~old_entry ~new_entry ~blocks ~read_old ~new_instrs ()]
    assembles a map. [blocks] lists (bid, old start, old end, new start)
    per basic block; [read_old] reads the old code image; [new_instrs]
    returns the emitted instructions of one bid in layout order. *)
val build :
  ?trackers:tracker list ->
  fid:int ->
  old_entry:int ->
  new_entry:int ->
  blocks:(int * int * int * int) array ->
  read_old:(int -> Ocolos_isa.Instr.t option) ->
  new_instrs:(int -> (int * Ocolos_isa.Instr.t) array) ->
  unit ->
  t

val resolve : t -> int -> resolution

(** Old block start -> new block start (None if not a block start). *)
val block_new_start : t -> int -> int option

(** The block whose old range contains the address. *)
val containing_block : t -> int -> block_site option

(** [iter_exact f t] calls [f old_pc new_pc] on every instruction-granular
    entry, in ascending old-PC order. *)
val iter_exact : (int -> int -> unit) -> t -> unit

(** Number of instruction-granular map entries (telemetry). *)
val exact_points : t -> int
