(* Predecoded basic blocks: the flat-array representation behind the
   decoded-block execution engine.

   A block is a maximal straight-line run of instructions starting at
   [b_start]: it extends instruction by instruction until a control transfer
   (which, if present, is always the *last* entry), until the next address
   holds no instruction, or until [max_len]. Entries are stored as parallel
   unboxed arrays (address, byte size, instruction) so the executor touches
   no hash table and allocates nothing while running a block.

   Decoding is pure with respect to the machine: it only reads the code map
   (via the [read] callback), so predecoding ahead of execution has no
   microarchitectural side effects. [read] returns [unmapped] for an
   address that holds no instruction, so a read allocates no option. *)

type block = {
  b_start : int;  (* address of the first instruction *)
  b_end : int;  (* one past the last instruction's last byte *)
  b_addrs : int array;  (* instruction start addresses, ascending *)
  b_sizes : int array;  (* byte sizes, [b_sizes.(i) = Instr.size b_instrs.(i)] *)
  b_instrs : Instr.t array;
}

let length b = Array.length b.b_instrs

(* A boxed constructor, compared physically: no instruction in a code map
   is this block, whatever its fields. *)
let unmapped = Instr.Jump (-1)

(* Default cap on block length. Bounds both decode look-ahead and the staleness
   window between the per-instruction limit checks of the executor. *)
let default_max_len = 64

(* Decode the block starting at [start]. Returns [None] when [start] itself
   holds no instruction (the caller faults, exactly as a fetch would).

   Invariant relied on by the executor: every entry except possibly the last
   is NOT a control transfer, so a block body always falls through
   internally and only its final instruction may redirect the PC. *)
let decode ~read ?(max_len = default_max_len) start =
  let first = read start in
  if first == unmapped then None
  else begin
    let max_len = max 1 max_len in
    let addrs = Array.make max_len 0 in
    let sizes = Array.make max_len 0 in
    let instrs = Array.make max_len first in
    let n = ref 0 in
    let addr = ref start in
    let next = ref first in
    while !next != unmapped && !n < max_len do
      let instr = !next in
      let size = Instr.size instr in
      addrs.(!n) <- !addr;
      sizes.(!n) <- size;
      instrs.(!n) <- instr;
      incr n;
      addr := !addr + size;
      (* A control transfer ends the block; so does running off mapped code
         (the next dispatch will fault or decode a fresh block there). *)
      next := if Instr.is_control_flow instr then unmapped else read !addr
    done;
    Some
      { b_start = start;
        b_end = !addr;
        b_addrs = Array.sub addrs 0 !n;
        b_sizes = Array.sub sizes 0 !n;
        b_instrs = Array.sub instrs 0 !n }
  end

(* True when the block's decoded entries still match [read]'s view of the
   code map — the coherence predicate the invalidation discipline
   maintains: every entry's address is mapped, to an instruction
   structurally equal to the decoded one. A top-level loop over explicit
   arguments, so a check allocates nothing. *)
let rec coherent_from read addrs instrs i =
  i >= Array.length addrs
  ||
  let instr = read (Array.unsafe_get addrs i) in
  instr != unmapped
  && Instr.equal instr (Array.unsafe_get instrs i)
  && coherent_from read addrs instrs (i + 1)

let coherent ~read b = coherent_from read b.b_addrs b.b_instrs 0

let pp fmt b =
  Fmt.pf fmt "@[<v>block 0x%x..0x%x (%d instrs)@,%a@]" b.b_start b.b_end (length b)
    (Fmt.iter_bindings ~sep:Fmt.cut
       (fun f arr -> Array.iteri (fun i x -> f i x) arr)
       (fun fmt (i, instr) -> Fmt.pf fmt "  0x%x: %a" b.b_addrs.(i) Instr.pp instr))
    b.b_instrs
