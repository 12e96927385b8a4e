(* A simulated thread: registers, program counter, call stack, a private
   deterministic PRNG (for the Rand instruction), and a private core model.

   The call stack is explicit so that OCOLOS can walk it (the libunwind
   analog) and patch return addresses during continuous optimization. *)

open Ocolos_isa

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
  mutable instret : int; (* instructions retired *)
}

let create ~tid ~entry ~seed ~cfg =
  { tid;
    regs = Array.make Instr.num_regs 0;
    pc = entry;
    frames = Array.init 64 (fun _ -> { ret_addr = 0; callee_entry = 0 });
    depth = 0;
    rng = Ocolos_util.Rng.create seed;
    core = Ocolos_uarch.Core.create ~cfg ();
    state = Running;
    instret = 0 }

(* Independent deep copy: registers, call stack and PRNG are duplicated so
   the copy replays the same future execution without touching the source.
   The core is a fresh replay-only one: a copy exists to replay
   architectural semantics (the shadow checker, with no cycle limit), and
   cycle state never affects them, so it gets the smallest valid geometry
   rather than a full-size cache hierarchy to allocate and throw away. Its
   counters still count; only the transaction count is ever read. *)
let copy t =
  { tid = t.tid;
    regs = Array.copy t.regs;
    pc = t.pc;
    frames =
      Array.map
        (fun f -> { ret_addr = f.ret_addr; callee_entry = f.callee_entry })
        t.frames;
    depth = t.depth;
    rng = Ocolos_util.Rng.copy t.rng;
    core = Ocolos_uarch.Core.create ~cfg:Ocolos_uarch.Config.tiny ();
    state = t.state;
    instret = t.instret }

let grow t =
  let n = Array.length t.frames in
  let bigger = Array.init (2 * n) (fun i -> if i < n then t.frames.(i) else { ret_addr = 0; callee_entry = 0 }) in
  t.frames <- bigger

let push_frame t ~ret_addr ~callee_entry =
  if t.depth >= Array.length t.frames then grow t;
  let f = t.frames.(t.depth) in
  f.ret_addr <- ret_addr;
  f.callee_entry <- callee_entry;
  t.depth <- t.depth + 1

let pop_frame t =
  if t.depth = 0 then None
  else begin
    t.depth <- t.depth - 1;
    Some t.frames.(t.depth).ret_addr
  end

(* [pop_frame] for the interpreter's Ret path, without the option: requires
   [depth > 0]. *)
let pop_ret t =
  t.depth <- t.depth - 1;
  (Array.unsafe_get t.frames t.depth).ret_addr

(* Return addresses innermost-first; this is what a stack walk sees. *)
let return_addresses t = List.init t.depth (fun i -> t.frames.(t.depth - 1 - i).ret_addr)

(* Frames as mutable records, for OCOLOS's return-address patching. *)
let live_frames t = List.init t.depth (fun i -> t.frames.(i))

let[@inline] is_running t = match t.state with Running -> true | Halted | Faulted _ -> false
