(** The virtual instruction set.

    A small CISC-flavoured ISA with variable-length instructions so that code
    layout has byte-accurate effects on the L1i, iTLB and BTB models. Direct
    control transfers carry absolute byte addresses once a binary has been
    laid out; pre-layout code uses the symbolic form in {!Ir}. *)

(** Register index in [0, num_regs). *)
type reg = int

val num_regs : int

type alu_op = Add | Sub | Mul | Xor | And | Or | Shl | Shr

(** Conditions compare a register against zero. *)
type cond = Eq | Ne | Lt | Ge | Gt | Le

type t =
  | Nop
  | Alu of alu_op * reg * reg * reg  (** dst <- src1 op src2 *)
  | Alui of alu_op * reg * reg * int  (** dst <- src op imm *)
  | Movi of reg * int
  | Load of reg * reg * int  (** dst <- data\[base + off\] *)
  | Store of reg * reg * int  (** data\[base + off\] <- src *)
  | Branch of cond * reg * int  (** if (reg cond 0) goto target *)
  | Jump of int
  | JumpInd of reg  (** computed goto, used by jump tables *)
  | Call of int
  | CallInd of reg
  | Ret
  | FpCreate of reg * int
      (** dst <- address of function; the function-pointer creation site that
          OCOLOS's compiler pass intercepts (Section IV-C2 of the paper) *)
  | VtLoad of reg * int * int  (** dst <- vtable\[vid\].(slot) *)
  | Rand of reg * int
      (** dst <- prng() mod bound. Advances a per-thread deterministic PRNG;
          layout transformations preserve the dynamic instruction sequence so
          draws align across layouts, keeping semantics comparable. *)
  | TxMark  (** end-of-request marker for throughput accounting *)
  | Halt

(** Encoded size in bytes (x86-64-like). *)
val size : t -> int

(** Every register operand is in [0, num_regs). Checked once per
    instruction at code-map write time ([Addr_space.write_code]), which is
    what lets the interpreter access register files unchecked. *)
val valid_regs : t -> bool

val is_control_flow : t -> bool

(** True for instructions that end a basic block (calls do not). *)
val is_terminator : t -> bool

val is_call : t -> bool

(** Static code-address operand of direct transfers and [FpCreate]. *)
val static_target : t -> int option

(** [static_target] without the option: the operand, or [-1]. *)
val target : t -> int

(** Rewrite the static code-address operand. Raises [Invalid_argument] when
    the instruction has none. *)
val with_target : t -> int -> t

(** Structural equality, monomorphic (no polymorphic compare). *)
val equal : t -> t -> bool

val eval_cond : cond -> int -> bool
val eval_alu : alu_op -> int -> int -> int

val pp_alu_op : Format.formatter -> alu_op -> unit
val pp_cond : Format.formatter -> cond -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
