(* Span tracing on a simulated microsecond clock (see trace.mli). *)

type value = S of string | I of int | F of float | B of bool

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int option;
  sp_begin_us : int;
  mutable sp_end_us : int option;
  mutable sp_attrs : (string * value) list;
}

type event_kind = Instant | Counter

type event = {
  ev_name : string;
  ev_ts_us : int;
  ev_kind : event_kind;
  ev_args : (string * value) list;
}

type t = {
  mutable now_us : int;
  mutable next_id : int;
  mutable stack : span list; (* open spans, innermost first *)
  mutable rev_spans : span list; (* all spans, reverse begin order *)
  mutable rev_events : event list;
  mutable nspans : int;
}

let create () =
  { now_us = 0; next_id = 0; stack = []; rev_spans = []; rev_events = []; nspans = 0 }

let now_us t = t.now_us

(* ---- ambient replica context ----

   Fleet drivers tag everything recorded on behalf of replica [n] so the
   exporter can route it to a per-replica Perfetto process track. The tag
   rides on span/event attributes: no tag, no byte change. *)

let replica_ctx : int option ref = ref None

let current_replica () = !replica_ctx

let in_replica n f =
  let prev = !replica_ctx in
  replica_ctx := Some n;
  Fun.protect ~finally:(fun () -> replica_ctx := prev) f

let tag_replica attrs =
  match !replica_ctx with
  | None -> attrs
  | Some n -> attrs @ [ ("replica", I n) ]

(* Every recorded timestamp consumes one microsecond, so timestamps are
   unique and strictly ordered by record time. *)
let take_ts t =
  let ts = t.now_us in
  t.now_us <- t.now_us + 1;
  ts

let set_time_s t seconds =
  let us = int_of_float (Float.round (seconds *. 1e6)) in
  if us > t.now_us then t.now_us <- us

let advance_s t seconds = set_time_s t (float_of_int t.now_us /. 1e6 +. seconds)

let begin_span t ?(attrs = []) name =
  let sp =
    { sp_id = t.next_id;
      sp_name = name;
      sp_parent = (match t.stack with [] -> None | parent :: _ -> Some parent.sp_id);
      sp_begin_us = take_ts t;
      sp_end_us = None;
      sp_attrs = tag_replica attrs }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- sp :: t.stack;
  t.rev_spans <- sp :: t.rev_spans;
  t.nspans <- t.nspans + 1;
  sp

let end_span t ?(attrs = []) sp =
  sp.sp_attrs <- sp.sp_attrs @ attrs;
  (match sp.sp_end_us with None -> sp.sp_end_us <- Some (take_ts t) | Some _ -> ());
  t.stack <- List.filter (fun s -> s != sp) t.stack

let add_attr sp k v = sp.sp_attrs <- sp.sp_attrs @ [ (k, v) ]

let with_span t ?attrs name f =
  let sp = begin_span t ?attrs name in
  match f sp with
  | x ->
    end_span t sp;
    x
  | exception e ->
    add_attr sp "error" (S (Printexc.to_string e));
    end_span t sp;
    raise e

let instant t ?(attrs = []) name =
  t.rev_events <-
    { ev_name = name; ev_ts_us = take_ts t; ev_kind = Instant; ev_args = tag_replica attrs }
    :: t.rev_events

let counter t name series =
  t.rev_events <-
    { ev_name = name;
      ev_ts_us = take_ts t;
      ev_kind = Counter;
      ev_args = tag_replica (List.map (fun (k, v) -> (k, F v)) series) }
    :: t.rev_events

let spans t = List.rev t.rev_spans
let events t = List.rev t.rev_events
let span_count t = t.nspans
let open_spans t = t.stack

(* ---- ambient current trace ---- *)

let current : t option ref = ref None

let with_installed t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

let installed () = !current

let span ?attrs name f =
  match !current with
  | None -> f None
  | Some t ->
    with_span t ?attrs name (fun sp -> f (Some sp))

let open_span ?attrs name =
  match !current with None -> None | Some t -> Some (begin_span t ?attrs name)

let close_span ?attrs sp =
  match (!current, sp) with
  | Some t, Some sp -> end_span t ?attrs sp
  | _, _ -> ()

let set_attr sp k v = match sp with Some sp -> add_attr sp k v | None -> ()

let plot name series =
  match !current with Some t -> counter t name series | None -> ()

let clock seconds = match !current with Some t -> set_time_s t seconds | None -> ()
