(** CFG reconstruction from machine code (BOLT's disassembly front-end).

    Recovers a function's control-flow graph by recursive traversal from its
    entry point, splitting provisional blocks when a later branch target
    lands inside one and recovering jump-table targets from the data image.
    The result is a symbolic {!Ocolos_isa.Ir.func}, re-emittable under any
    layout, plus address maps for profile attachment. *)

type reconstructed = {
  rc_fid : int;
  rc_func : Ocolos_isa.Ir.func;  (** bid 0 is the entry block *)
  rc_block_addr : int array;  (** bid -> original start address *)
  rc_block_end : int array;  (** bid -> original end address, exclusive *)
  rc_counts : int array;  (** bid -> execution count (0 before attach) *)
  rc_edges : (int * int, int) Hashtbl.t;  (** (src bid, dst bid) -> count *)
  rc_instr_count : int;
  rc_instr_addrs : int array;
      (** address of every decoded instruction, terminators included,
          ascending (empty for CFGs not decoded from machine code) *)
}

(** Raised when a function cannot be safely reconstructed (unknown indirect
    jump idiom, target outside the function, ...). BOLT skips such
    functions. *)
exception Unsupported of string

(** Generic reconstruction over abstract code/data accessors. *)
val reconstruct :
  fid:int ->
  entry:int ->
  read_code:(int -> Ocolos_isa.Instr.t option) ->
  read_data:(int -> int option) ->
  in_function:(int -> bool) ->
  fid_of_entry:(int -> int option) ->
  fname:string ->
  reconstructed

(** Reconstruct a function of a binary image. *)
val of_binary : Ocolos_binary.Binary.t -> int -> reconstructed

(** [reconstructor binary] builds the O(binary)-sized lookup structures
    once and returns [of_binary binary] partially applied to them: use it
    when reconstructing many functions of the same image (BOLT's
    front-end, the Tier-1 validator), where per-call setup would be
    quadratic. The returned closure raises {!Unsupported} like
    {!of_binary}. *)
val reconstructor : Ocolos_binary.Binary.t -> int -> reconstructed

(** [memoize binary] is {!reconstructor} with a memo: each function is
    decoded at most once, and every call returns that shared, immutable
    decoding with fresh zeroed [rc_counts]/[rc_edges] (the fields
    {!attach_profile} mutates). A refused reconstruction is remembered and
    re-raised as {!Unsupported}. Lets BOLT and the Tier-1 validator share
    one decoding of the input binary per campaign. *)
val memoize : Ocolos_binary.Binary.t -> int -> reconstructed

(** Attach profile counts. [branches] are this function's taken edges as
    (from, to, count); [ranges] its straight-line runs as
    (start, end, count). Walking a range bumps every covered block and each
    fallthrough edge crossed. *)
val attach_profile :
  reconstructed ->
  branches:(int * int * int) list ->
  ranges:(int * int * int) list ->
  unit

val total_count : reconstructed -> int
val edge_count : reconstructed -> int * int -> int
