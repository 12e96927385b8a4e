(* The virtual instruction set.

   A small CISC-flavoured ISA with variable-length instructions so that code
   layout has byte-accurate effects on the L1i, iTLB and BTB models. Control
   transfers carry absolute byte addresses once a binary is laid out;
   pre-layout code uses the symbolic form in {!Ir}. *)

type reg = int

let num_regs = 16

type alu_op = Add | Sub | Mul | Xor | And | Or | Shl | Shr

type cond = Eq | Ne | Lt | Ge | Gt | Le

type t =
  | Nop
  | Alu of alu_op * reg * reg * reg (* dst <- src1 op src2 *)
  | Alui of alu_op * reg * reg * int (* dst <- src op imm *)
  | Movi of reg * int (* dst <- imm *)
  | Load of reg * reg * int (* dst <- data[base + off] *)
  | Store of reg * reg * int (* data[base + off] <- src *)
  | Branch of cond * reg * int (* if (reg cond 0) goto target *)
  | Jump of int
  | JumpInd of reg (* goto reg; used by jump tables *)
  | Call of int (* direct call *)
  | CallInd of reg (* indirect call through register *)
  | Ret
  | FpCreate of reg * int (* dst <- &func; interceptable creation site *)
  | VtLoad of reg * int * int (* dst <- vtable[vid].(slot) *)
  | Rand of reg * int (* dst <- prng() mod bound; layout-invariant *)
  | TxMark (* end-of-request marker for throughput accounting *)
  | Halt

(* Byte sizes chosen to resemble x86-64 encodings; layout quality depends on
   hot instructions packing densely into 64-byte lines. *)
let size = function
  | Nop -> 1
  | Alu _ -> 3
  | Alui _ -> 4
  | Movi _ -> 5
  | Load _ | Store _ -> 4
  | Branch _ -> 4
  | Jump _ -> 5
  | JumpInd _ -> 2
  | Call _ -> 5
  | CallInd _ -> 2
  | Ret -> 1
  | FpCreate _ -> 7
  | VtLoad _ -> 7
  | Rand _ -> 4
  | TxMark -> 1
  | Halt -> 1

(* Every register operand is in [0, num_regs). [Addr_space.write_code]
   rejects instructions that fail this, which is what lets the interpreter
   access register files unchecked. *)
let valid_regs instr =
  let ok r = r >= 0 && r < num_regs in
  match instr with
  | Nop | TxMark | Halt | Ret | Jump _ | Call _ -> true
  | Alu (_, d, a, b) -> ok d && ok a && ok b
  | Alui (_, d, a, _) -> ok d && ok a
  | Movi (d, _) | Rand (d, _) | FpCreate (d, _) | VtLoad (d, _, _) -> ok d
  | Load (d, b, _) -> ok d && ok b
  | Store (s, b, _) -> ok s && ok b
  | Branch (_, r, _) | JumpInd r | CallInd r -> ok r

let is_control_flow = function
  | Branch _ | Jump _ | JumpInd _ | Call _ | CallInd _ | Ret | Halt -> true
  | Nop | Alu _ | Alui _ | Movi _ | Load _ | Store _ | FpCreate _ | VtLoad _ | Rand _
  | TxMark ->
    false

(* Instructions that end a basic block during CFG reconstruction. Calls do
   not: execution resumes at the next instruction. *)
let is_terminator = function
  | Branch _ | Jump _ | JumpInd _ | Ret | Halt -> true
  | Nop | Alu _ | Alui _ | Movi _ | Load _ | Store _ | Call _ | CallInd _ | FpCreate _
  | VtLoad _ | Rand _ | TxMark ->
    false

let is_call = function
  | Call _ | CallInd _ -> true
  | Nop | Alu _ | Alui _ | Movi _ | Load _ | Store _ | Branch _ | Jump _ | JumpInd _
  | Ret | FpCreate _ | VtLoad _ | Rand _ | TxMark | Halt ->
    false

(* Static target of a direct control transfer or fp materialization, or
   -1 (code addresses are never negative): the allocation-free form, for
   sweeps over a whole code map. *)
let target = function
  | Branch (_, _, t) | Jump t | Call t | FpCreate (_, t) -> t
  | Nop | Alu _ | Alui _ | Movi _ | Load _ | Store _ | JumpInd _ | CallInd _ | Ret
  | VtLoad _ | Rand _ | TxMark | Halt ->
    -1

let static_target i = match target i with -1 -> None | t -> Some t

(* Rewrite the static code-address operand, used by the emitter's relocation
   pass and by OCOLOS when it redirects code references during OSR. *)
let with_target instr target =
  match instr with
  | Branch (c, r, _) -> Branch (c, r, target)
  | Jump _ -> Jump target
  | Call _ -> Call target
  | FpCreate (r, _) -> FpCreate (r, target)
  | Nop | Alu _ | Alui _ | Movi _ | Load _ | Store _ | JumpInd _ | CallInd _ | Ret
  | VtLoad _ | Rand _ | TxMark | Halt ->
    invalid_arg "Instr.with_target: instruction has no static target"

(* Structural equality without the polymorphic [caml_equal]: the operator
   and condition types are constant constructors, so their [=] is an
   integer compare. *)
let equal a b =
  match (a, b) with
  | Nop, Nop | Ret, Ret | TxMark, TxMark | Halt, Halt -> true
  | Alu (o, d, x, y), Alu (o', d', x', y') ->
    (o : alu_op) = o' && d = d' && x = x' && y = y'
  | Alui (o, d, x, i), Alui (o', d', x', i') ->
    (o : alu_op) = o' && d = d' && x = x' && i = i'
  | Movi (d, i), Movi (d', i') | Rand (d, i), Rand (d', i') -> d = d' && i = i'
  | Load (d, b, o), Load (d', b', o') | Store (d, b, o), Store (d', b', o')
  | VtLoad (d, b, o), VtLoad (d', b', o') ->
    d = d' && b = b' && o = o'
  | Branch (c, r, t), Branch (c', r', t') -> (c : cond) = c' && r = r' && t = t'
  | Jump t, Jump t' | Call t, Call t' -> t = t'
  | JumpInd r, JumpInd r' | CallInd r, CallInd r' -> r = r'
  | FpCreate (r, t), FpCreate (r', t') -> r = r' && t = t'
  | ( ( Nop | Alu _ | Alui _ | Movi _ | Load _ | Store _ | Branch _ | Jump _ | JumpInd _
      | Call _ | CallInd _ | Ret | FpCreate _ | VtLoad _ | Rand _ | TxMark | Halt ),
      _ ) ->
    false

(* [@inline] on the two evaluators: both sit on the interpreter's
   per-instruction path and are small dispatch tables. *)
let[@inline] eval_cond cond v =
  match cond with
  | Eq -> v = 0
  | Ne -> v <> 0
  | Lt -> v < 0
  | Ge -> v >= 0
  | Gt -> v > 0
  | Le -> v <= 0

let[@inline] eval_alu op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Xor -> a lxor b
  | And -> a land b
  | Or -> a lor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)

let pp_alu_op fmt op =
  Fmt.string fmt
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Xor -> "xor"
    | And -> "and"
    | Or -> "or"
    | Shl -> "shl"
    | Shr -> "shr")

let pp_cond fmt c =
  Fmt.string fmt
    (match c with Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Ge -> "ge" | Gt -> "gt" | Le -> "le")

let pp fmt = function
  | Nop -> Fmt.string fmt "nop"
  | Alu (op, d, a, b) -> Fmt.pf fmt "%a r%d, r%d, r%d" pp_alu_op op d a b
  | Alui (op, d, a, imm) -> Fmt.pf fmt "%ai r%d, r%d, %d" pp_alu_op op d a imm
  | Movi (d, imm) -> Fmt.pf fmt "movi r%d, %d" d imm
  | Load (d, b, off) -> Fmt.pf fmt "load r%d, [r%d+%d]" d b off
  | Store (s, b, off) -> Fmt.pf fmt "store r%d, [r%d+%d]" s b off
  | Branch (c, r, t) -> Fmt.pf fmt "b.%a r%d, 0x%x" pp_cond c r t
  | Jump t -> Fmt.pf fmt "jmp 0x%x" t
  | JumpInd r -> Fmt.pf fmt "jmp *r%d" r
  | Call t -> Fmt.pf fmt "call 0x%x" t
  | CallInd r -> Fmt.pf fmt "call *r%d" r
  | Ret -> Fmt.string fmt "ret"
  | FpCreate (d, t) -> Fmt.pf fmt "lea r%d, &0x%x" d t
  | VtLoad (d, vid, slot) -> Fmt.pf fmt "vtload r%d, vt%d[%d]" d vid slot
  | Rand (d, bound) -> Fmt.pf fmt "rand r%d, %d" d bound
  | TxMark -> Fmt.string fmt "txmark"
  | Halt -> Fmt.string fmt "halt"

let to_string i = Fmt.str "%a" pp i
