(* Conditional-branch direction prediction: gshare with 2-bit saturating
   counters, plus a return-address stack for call/return target prediction. *)

type t = {
  history_bits : int;
  counters : int array; (* 2-bit saturating, initialized weakly taken *)
  mutable history : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

let create ?(history_bits = 12) () =
  { history_bits;
    counters = Array.make (1 lsl history_bits) 1;
    history = 0;
    predictions = 0;
    mispredictions = 0 }

let index t pc = (pc lxor t.history) land ((1 lsl t.history_bits) - 1)

let predict t pc = t.counters.(index t pc) >= 2

(* Predict, then update counters and history with the actual outcome.
   Returns true when the prediction was correct. *)
let predict_and_update t pc ~taken =
  let i = index t pc in
  let predicted = t.counters.(i) >= 2 in
  t.predictions <- t.predictions + 1;
  let correct = predicted = taken in
  if not correct then t.mispredictions <- t.mispredictions + 1;
  let c = t.counters.(i) in
  (* Int comparisons written out: the polymorphic [min]/[max] would call
     the generic compare once per conditional branch. *)
  t.counters.(i) <- (if taken then (if c < 3 then c + 1 else 3) else if c > 0 then c - 1 else 0);
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land ((1 lsl t.history_bits) - 1);
  correct

let reset_counters t =
  t.predictions <- 0;
  t.mispredictions <- 0

let misprediction_rate t =
  if t.predictions = 0 then 0.0
  else float_of_int t.mispredictions /. float_of_int t.predictions

let predictions t = t.predictions
let mispredictions t = t.mispredictions

(* Return-address stack. Fixed depth; overflows wrap (oldest entries are
   clobbered), as in hardware. *)
module Ras = struct
  type t = { slots : int array; mutable top : int; mutable depth : int }

  let create ?(size = 16) () = { slots = Array.make size 0; top = 0; depth = 0 }

  let push t addr =
    t.slots.(t.top) <- addr;
    t.top <- (t.top + 1) mod Array.length t.slots;
    if t.depth < Array.length t.slots then t.depth <- t.depth + 1

  (* Pop the predicted return address; None if empty (mispredict). *)
  let pop t =
    if t.depth = 0 then None
    else begin
      t.top <- (t.top + Array.length t.slots - 1) mod Array.length t.slots;
      t.depth <- t.depth - 1;
      Some t.slots.(t.top)
    end

  (* [pop]-and-compare for the interpreter's hot path: true iff the stack
     was nonempty and predicted [target]. State effects identical to
     [pop]. *)
  let pop_correct t ~target =
    if t.depth = 0 then false
    else begin
      t.top <- (t.top + Array.length t.slots - 1) mod Array.length t.slots;
      t.depth <- t.depth - 1;
      Array.unsafe_get t.slots t.top = target
    end

  let clear t =
    t.top <- 0;
    t.depth <- 0
end
