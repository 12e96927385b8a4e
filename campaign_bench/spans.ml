(* In-memory span recorder for the benchmark's traced run.

   A span is opened around one call into a layer of the program: it holds
   the layer name, host start and end, the enclosing span, the minor words
   allocated while it was open, and counts the caller derives from the
   call's result. Spans stay in memory and are written out when the run
   ends. With recording off, [run] is a plain call, so the untraced runs
   that measure the end-to-end metrics pay nothing for it. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a span opened outside any other *)
  mutable name : string;
  start : float;
  mutable stop : float;
  minor0 : float;
  mutable minor : float;  (** minor words allocated while open, children included *)
  mutable counts : (string * float) list;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let open_span name =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let sp =
    { id = !next_id;
      parent;
      name;
      start = Unix.gettimeofday ();
      stop = nan;
      minor0 = Gc.minor_words ();
      minor = 0.0;
      counts = [] }
  in
  incr next_id;
  stack := sp :: !stack;
  sp

let close_span sp =
  sp.stop <- Unix.gettimeofday ();
  sp.minor <- Gc.minor_words () -. sp.minor0;
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  recorded := sp :: !recorded

(* [run name f] calls [f] inside a span named [name]. [counts] derives the
   span's counts from the result, and [name_of] renames the span after the
   fact when the layer is only known from the result (a fleet tick is named
   by the action it took); both run after the span has closed. *)
let run ?counts ?name_of name f =
  if not !enabled then f ()
  else begin
    let sp = open_span name in
    let r = Fun.protect ~finally:(fun () -> close_span sp) f in
    (match counts with Some c -> sp.counts <- c r | None -> ());
    (match name_of with Some g -> sp.name <- g r | None -> ());
    r
  end

let all () = List.rev !recorded

type layer = {
  spans : int;
  self_s : float;  (** span time minus the time its child spans cover *)
  self_minor : float;
  layer_counts : (string * float) list;  (** summed over the layer's spans *)
}

(* Self time and self allocation per layer name, over every recorded span. *)
let layers () =
  let spans = all () in
  let child_s = Hashtbl.create 64 and child_minor = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl sp.parent
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.parent))
        in
        add child_s (sp.stop -. sp.start);
        add child_minor sp.minor
      end)
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let covered tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.id) in
      let self_s = sp.stop -. sp.start -. covered child_s in
      let self_minor = sp.minor -. covered child_minor in
      let prev =
        Option.value
          ~default:{ spans = 0; self_s = 0.0; self_minor = 0.0; layer_counts = [] }
          (Hashtbl.find_opt by_name sp.name)
      in
      let layer_counts =
        List.fold_left
          (fun acc (k, v) ->
            (k, v +. Option.value ~default:0.0 (List.assoc_opt k acc))
            :: List.remove_assoc k acc)
          prev.layer_counts sp.counts
      in
      Hashtbl.replace by_name sp.name
        { spans = prev.spans + 1;
          self_s = prev.self_s +. self_s;
          self_minor = prev.self_minor +. self_minor;
          layer_counts })
    spans;
  by_name

(* Host cost of recording one span, measured by recording 100,000 empty
   spans into a scratch recorder; the traced run's overhead is this cost
   times the number of spans it recorded. *)
let cost_per_span () =
  let n = 100_000 in
  let saved_recorded = !recorded and saved_stack = !stack and saved_next = !next_id in
  let saved_enabled = !enabled in
  enabled := true;
  reset ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    run "calibrate" ignore
  done;
  let per = (Unix.gettimeofday () -. t0) /. float_of_int n in
  recorded := saved_recorded;
  stack := saved_stack;
  next_id := saved_next;
  enabled := saved_enabled;
  per
