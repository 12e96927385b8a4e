(** A simulated thread: registers, PC, explicit call stack, a private
    deterministic PRNG (for the [Rand] instruction) and a private core
    timing model. The explicit stack is what OCOLOS walks (the libunwind
    analog) and patches during continuous optimization. *)

type frame = { mutable ret_addr : int; mutable callee_entry : int }

type state = Running | Halted | Faulted of string

type t = {
  tid : int;
  regs : int array;
  mutable pc : int;
  mutable frames : frame array;
  mutable depth : int;
  rng : Ocolos_util.Rng.t;
  core : Ocolos_uarch.Core.t;
  mutable state : state;
  mutable instret : int;
}

val create : tid:int -> entry:int -> seed:int -> cfg:Ocolos_uarch.Config.t -> t

(** Independent deep copy: registers, call stack and PRNG are duplicated
    (the copy replays the same future execution). The core timing model is
    a fresh replay-only one of {!Ocolos_uarch.Config.tiny} geometry: cycle
    state never affects architectural semantics, and a copy's cycle and
    cache counters are not comparable with its source's. *)
val copy : t -> t

val push_frame : t -> ret_addr:int -> callee_entry:int -> unit

(** Pop and return the return address, [None] on an empty stack. *)
val pop_frame : t -> int option

(** {!pop_frame} without the option, for the interpreter's Ret path.
    Requires [depth > 0]. *)
val pop_ret : t -> int

(** Return addresses, innermost first. *)
val return_addresses : t -> int list

(** Live frames, outermost first, as mutable records for patching. *)
val live_frames : t -> frame list

val is_running : t -> bool
