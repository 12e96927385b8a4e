(** Predecoded basic blocks: flat-array representation for the decoded-block
    execution engine.

    A block is a maximal straight-line run starting at [b_start]; only its
    last entry may be a control transfer. Decoding reads the code map
    through a callback and has no microarchitectural side effects. *)

type block = {
  b_start : int;  (** address of the first instruction *)
  b_end : int;  (** one past the last instruction's last byte *)
  b_addrs : int array;  (** instruction start addresses, ascending *)
  b_sizes : int array;  (** byte sizes, [b_sizes.(i) = Instr.size b_instrs.(i)] *)
  b_instrs : Instr.t array;
}

val length : block -> int

(** Default cap on entries per block. *)
val default_max_len : int

(** [decode ~read start] decodes the block at [start], stopping after a
    control transfer, before an unmapped address, or at [max_len] entries.
    [None] when [start] itself holds no instruction. *)
val decode : read:(int -> Instr.t option) -> ?max_len:int -> int -> block option

(** Do the decoded entries still match the code map? *)
val coherent : read:(int -> Instr.t option) -> block -> bool

val pp : Format.formatter -> block -> unit
