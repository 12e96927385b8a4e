(* Tests for the observability layer (Ocolos_obs): span tracing on the
   simulated clock, the metrics registry with its deterministic exporters,
   the Chrome trace-event emitter, and end-to-end byte-stable emission of a
   fixed-seed pipeline run. *)

open Ocolos_workloads
module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics
module Chrome = Ocolos_obs.Chrome
module Json = Ocolos_obs.Json
module Events = Ocolos_obs.Events
module Layout_health = Ocolos_obs.Layout_health
module Measure = Ocolos_sim.Measure
module Timeline = Ocolos_sim.Timeline
module Clock = Ocolos_sim.Clock
module Daemon = Ocolos_core.Daemon
module Fleet = Ocolos_core.Fleet

(* ---- span tracing ---- *)

(* Build a random span tree (shape a pure function of the seed) through
   [with_span], interleaving instants, then check the structural invariants
   the Chrome exporter relies on. *)
let prop_span_tree_well_formed =
  QCheck.Test.make ~name:"span tree well-formed" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Ocolos_util.Rng.create seed in
      let tr = Trace.create () in
      let rec grow depth =
        let children = if depth >= 4 then 0 else Ocolos_util.Rng.int rng 4 in
        for i = 1 to children do
          Trace.with_span tr (Printf.sprintf "s%d.%d" depth i) (fun _ ->
              if Ocolos_util.Rng.int rng 3 = 0 then Trace.instant tr "tick";
              grow (depth + 1))
        done
      in
      Trace.with_span tr "root" (fun _ -> grow 0);
      let spans = Trace.spans tr in
      let by_id = Hashtbl.create 64 in
      List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.sp_id s) spans;
      (* ids unique, all closed *)
      Hashtbl.length by_id = List.length spans
      && List.for_all (fun (s : Trace.span) -> s.Trace.sp_end_us <> None) spans
      && Trace.open_spans tr = []
      (* begin timestamps strictly increasing in begin order *)
      && (let rec incr_begin = function
            | (a : Trace.span) :: (b : Trace.span) :: rest ->
              a.Trace.sp_begin_us < b.Trace.sp_begin_us && incr_begin (b :: rest)
            | _ -> true
          in
          incr_begin spans)
      (* every child strictly nested inside its parent *)
      && List.for_all
           (fun (s : Trace.span) ->
             match s.Trace.sp_parent with
             | None -> true
             | Some pid -> (
               match Hashtbl.find_opt by_id pid with
               | None -> false
               | Some p ->
                 let e s =
                   match s.Trace.sp_end_us with Some e -> e | None -> max_int
                 in
                 p.Trace.sp_begin_us < s.Trace.sp_begin_us && e s < e p))
           spans)

let test_span_close_out_of_order () =
  (* Spans opened/closed across separate calls (the Perf.start/stop shape):
     closing the outer one first must not orphan or close the inner one. *)
  let tr = Trace.create () in
  let a = Trace.begin_span tr "a" in
  let b = Trace.begin_span tr "b" in
  Trace.end_span tr a;
  Alcotest.(check bool) "a closed" true (a.Trace.sp_end_us <> None);
  Alcotest.(check bool) "b still open" true (b.Trace.sp_end_us = None);
  Alcotest.(check (list string)) "only b open" [ "b" ]
    (List.map (fun (s : Trace.span) -> s.Trace.sp_name) (Trace.open_spans tr));
  Alcotest.(check bool) "b's parent is a" true (b.Trace.sp_parent = Some a.Trace.sp_id);
  Trace.end_span tr b;
  Trace.end_span tr b (* idempotent *);
  Alcotest.(check int) "two spans" 2 (Trace.span_count tr);
  Alcotest.(check (list Alcotest.reject)) "nothing open" [] (Trace.open_spans tr)

let test_with_span_exception () =
  let tr = Trace.create () in
  (try Trace.with_span tr "boom" (fun _ -> failwith "kaput") with Failure _ -> ());
  match Trace.spans tr with
  | [ s ] ->
    Alcotest.(check bool) "closed" true (s.Trace.sp_end_us <> None);
    Alcotest.(check bool) "error attr recorded" true
      (List.exists
         (function "error", Trace.S m -> m = "Failure(\"kaput\")" | _ -> false)
         s.Trace.sp_attrs)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_clock_monotonic () =
  let tr = Trace.create () in
  Trace.set_time_s tr 1.0;
  Alcotest.(check int) "anchored at 1s" 1_000_000 (Trace.now_us tr);
  Trace.set_time_s tr 0.5;
  Alcotest.(check int) "anchoring into the past is a no-op" 1_000_000 (Trace.now_us tr);
  Trace.instant tr "e1";
  Trace.instant tr "e2";
  (match Trace.events tr with
  | [ e1; e2 ] ->
    Alcotest.(check int) "first event at anchor" 1_000_000 e1.Trace.ev_ts_us;
    Alcotest.(check int) "one-microsecond tick" 1_000_001 e2.Trace.ev_ts_us
  | _ -> Alcotest.fail "expected two events");
  Trace.advance_s tr 0.25;
  Alcotest.(check int) "advance is relative" 1_250_002 (Trace.now_us tr)

let test_ambient_helpers_noop_when_uninstalled () =
  let got = Trace.span "x" (fun sp -> sp) in
  Alcotest.(check bool) "span passes None" true (got = None);
  Events.emit "fault.fired" [ ("point", Trace.S "p"); ("hit", Trace.I 1) ];
  Trace.plot "nothing" [ ("v", 1.0) ];
  Trace.clock 5.0;
  Metrics.count "c" 1;
  Metrics.record "g" 1.0;
  Metrics.sample ~buckets:[| 1.0 |] "h" 0.5;
  Alcotest.(check bool) "nothing installed" true (Trace.installed () = None)

(* Scopes nest, unwind on exception, and leave nothing behind: after each
   inner scope the outer trace, registry and log are the ambient ones
   again, and once the outer scope closes an emit reaches no sink. *)
let test_scoped_sinks_nest_and_unwind () =
  let emit () = Events.emit "fault.fired" [ ("point", Trace.S "p"); ("hit", Trace.I 1) ] in
  let scope (tr, reg, ev) f =
    Trace.with_installed tr @@ fun () ->
    Metrics.with_installed reg @@ fun () -> Events.with_installed ev f
  in
  let sinks () = (Trace.create (), Metrics.create (), Events.create ()) in
  let ((tr_out, _, _) as outer) = sinks () and inner = sinks () in
  let is_outer () =
    match Trace.installed () with Some tr -> tr == tr_out | None -> false
  in
  scope outer (fun () ->
      scope inner emit;
      Alcotest.(check bool) "outer trace back after the inner scope" true (is_outer ());
      emit ();
      (match scope inner (fun () -> emit (); failwith "boom") with
      | () -> Alcotest.fail "the inner scope did not raise"
      | exception Failure _ -> ());
      Alcotest.(check bool) "outer trace back after a raise" true (is_outer ());
      emit ());
  Alcotest.(check bool) "nothing installed after the outer scope" true
    (Trace.installed () = None);
  emit ();
  let check_sinks name n (tr, reg, ev) =
    Alcotest.(check int) (name ^ " trace instants") n (List.length (Trace.events tr));
    Alcotest.(check int) (name ^ " log records") n (Events.count ev);
    Alcotest.(check int) (name ^ " counter") n
      (Metrics.counter_value
         (Metrics.counter reg ~labels:[ ("point", "p") ] "ocolos_fault_fired_total"))
  in
  check_sinks "inner" 2 inner;
  check_sinks "outer" 2 outer

(* ---- metrics registry ---- *)

let test_histogram_bucket_boundaries () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[| 1.0; 2.0; 5.0 |] "h" in
  (* Prometheus [le] semantics: v lands in the first bucket with v <= bound,
     so an observation exactly on a bound belongs to that bucket. *)
  Metrics.observe h 1.0;
  Metrics.observe h 1.0000001;
  Metrics.observe h 2.0;
  Metrics.observe h 5.0;
  Metrics.observe h 5.0000001;
  Metrics.observe h 0.0;
  Alcotest.(check bool) "per-bucket counts" true
    (Metrics.hist_buckets h = [| (1.0, 2); (2.0, 2); (5.0, 1); (Float.infinity, 1) |]);
  Alcotest.(check int) "count" 6 (Metrics.hist_count h);
  Alcotest.(check bool) "sum" true (Float.abs (Metrics.hist_sum h -. 14.0000002) < 1e-6);
  Alcotest.check_raises "empty buckets rejected"
    (Invalid_argument "Metrics.histogram: empty buckets") (fun () ->
      ignore (Metrics.histogram r ~buckets:[||] "h_empty"));
  Alcotest.check_raises "non-increasing buckets rejected"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing") (fun () ->
      ignore (Metrics.histogram r ~buckets:[| 1.0; 1.0 |] "h_flat"))

let test_metric_identity_and_kinds () =
  let r = Metrics.create () in
  let c1 = Metrics.counter r ~labels:[ ("b", "2"); ("a", "1") ] "m" in
  (* label order does not create a new identity *)
  let c2 = Metrics.counter r ~labels:[ ("a", "1"); ("b", "2") ] "m" in
  Metrics.inc c1 3;
  Metrics.inc c2 4;
  Alcotest.(check int) "same underlying counter" 7 (Metrics.counter_value c1);
  (* different labels are a different time series *)
  let c3 = Metrics.counter r ~labels:[ ("a", "9") ] "m" in
  Metrics.inc c3 1;
  Alcotest.(check int) "distinct series" 1 (Metrics.counter_value c3);
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore (Metrics.gauge r ~labels:[ ("a", "1"); ("b", "2") ] "m");
       false
     with Invalid_argument _ -> true);
  let _h = Metrics.histogram r ~buckets:[| 1.0 |] "h" in
  Alcotest.(check bool) "histogram rebucket raises" true
    (try
       ignore (Metrics.histogram r ~buckets:[| 2.0 |] "h");
       false
     with Invalid_argument _ -> true)

let populate_registry order r =
  (* Insert the same families in the given order; exporters must not care. *)
  List.iter
    (fun i ->
      match i with
      | 0 -> Metrics.inc (Metrics.counter r ~help:"transactions" "app_tx_total") 41
      | 1 -> Metrics.set (Metrics.gauge r "app_ipc") 1.75
      | 2 ->
        let h = Metrics.histogram r ~buckets:[| 0.001; 0.01; 0.1 |] "app_pause_seconds" in
        Metrics.observe h 0.005;
        Metrics.observe h 0.05;
        Metrics.observe h 0.5
      | _ -> Metrics.inc (Metrics.counter r ~labels:[ ("point", "pause") ] "app_cuts") 2)
    order

let test_export_insertion_order_independent () =
  let a = Metrics.create () and b = Metrics.create () in
  populate_registry [ 0; 1; 2; 3 ] a;
  populate_registry [ 3; 2; 1; 0 ] b;
  Alcotest.(check string) "prometheus text equal" (Metrics.to_prometheus a)
    (Metrics.to_prometheus b);
  Alcotest.(check string) "json equal"
    (Json.to_string (Metrics.to_json a))
    (Json.to_string (Metrics.to_json b))

let test_prometheus_format () =
  let r = Metrics.create () in
  populate_registry [ 0; 1; 2; 3 ] r;
  let text = Metrics.to_prometheus r in
  let expect =
    "# TYPE app_cuts counter\n\
     app_cuts{point=\"pause\"} 2\n\
     # TYPE app_ipc gauge\n\
     app_ipc 1.75\n\
     # TYPE app_pause_seconds histogram\n\
     app_pause_seconds_bucket{le=\"0.001\"} 0\n\
     app_pause_seconds_bucket{le=\"0.01\"} 1\n\
     app_pause_seconds_bucket{le=\"0.1\"} 2\n\
     app_pause_seconds_bucket{le=\"+Inf\"} 3\n\
     app_pause_seconds_sum 0.555\n\
     app_pause_seconds_count 3\n\
     # HELP app_tx_total transactions\n\
     # TYPE app_tx_total counter\n\
     app_tx_total 41\n"
  in
  Alcotest.(check string) "prometheus golden" expect text

(* ---- Chrome trace-event exporter ---- *)

let test_chrome_golden () =
  (* A hand-checked golden of the exact bytes Chrome.to_string emits for a
     tiny trace: one span wrapping an instant, then a counter sample. Locks
     the event format (key order, clock ticking, sorting, number
     rendering). *)
  let tr = Trace.create () in
  Trace.with_span tr "a" (fun sp ->
      Trace.add_attr sp "n" (Trace.I 7);
      Trace.instant tr "i");
  Trace.counter tr "c" [ ("v", 1.5) ];
  let expect =
    "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"ocolos\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"pipeline\"}},{\"name\":\"a\",\"cat\":\"ocolos\",\"ph\":\"X\",\"ts\":0,\"dur\":2,\"pid\":1,\"tid\":1,\"args\":{\"n\":7}},{\"ph\":\"i\",\"s\":\"t\",\"name\":\"i\",\"cat\":\"ocolos\",\"ts\":1,\"pid\":1,\"tid\":1,\"args\":{}},{\"ph\":\"C\",\"name\":\"c\",\"cat\":\"ocolos\",\"ts\":3,\"pid\":1,\"tid\":1,\"args\":{\"v\":1.5}}],\"displayTimeUnit\":\"ms\"}"
  in
  Alcotest.(check string) "chrome golden" expect (Chrome.to_string tr)

let test_json_number_rendering () =
  Alcotest.(check string) "integer-valued float" "3" (Json.number 3.0);
  Alcotest.(check string) "trailing zeros trimmed" "1.5" (Json.number 1.5);
  Alcotest.(check string) "keeps one fractional digit" "1.1" (Json.number 1.10000);
  Alcotest.(check string) "six digits max" "0.333333" (Json.number (1.0 /. 3.0));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "escaping" "\"a\\\"b\\n\"" (Json.to_string (Json.String "a\"b\n"))

(* ---- end-to-end: fixed-seed runs emit byte-identical artifacts ---- *)

let traced_ocolos_run () =
  let tr = Trace.create () in
  let reg = Metrics.create () in
  Trace.with_installed tr @@ fun () ->
  Metrics.with_installed reg (fun () ->
      let w = Apps.tiny ~tx_limit:None () in
      let input = Workload.find_input w "a" in
      let fault = Ocolos_util.Fault.create ~seed:5 () in
      Ocolos_util.Fault.arm fault "vtable_patch" (Ocolos_util.Fault.Nth 1);
      let config =
        { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
      in
      let r = Measure.ocolos_steady ~config ~profile_s:1.0 ~measure:0.5 w ~input in
      (r, Chrome.to_string tr, Metrics.to_prometheus reg, Json.to_string (Metrics.to_json reg)))

let test_end_to_end_deterministic () =
  let r1, trace1, prom1, json1 = traced_ocolos_run () in
  let r2, trace2, prom2, json2 = traced_ocolos_run () in
  Alcotest.(check bool) "run replays" true
    (r1.Measure.post.Measure.tps = r2.Measure.post.Measure.tps
    && r1.Measure.attempts = r2.Measure.attempts);
  Alcotest.(check string) "trace.json byte-identical" trace1 trace2;
  Alcotest.(check string) "prometheus dump byte-identical" prom1 prom2;
  Alcotest.(check string) "json dump byte-identical" json1 json2;
  Alcotest.(check bool) "one rollback, committed on attempt 2" true
    (r1.Measure.rollbacks = 1 && r1.Measure.attempts = 2)

let test_end_to_end_span_coverage () =
  let tr = Trace.create () in
  let reg = Metrics.create () in
  let r =
    Trace.with_installed tr @@ fun () ->
    Metrics.with_installed reg (fun () ->
        let w = Apps.tiny ~tx_limit:None () in
        let input = Workload.find_input w "a" in
        let fault = Ocolos_util.Fault.create ~seed:5 () in
        Ocolos_util.Fault.arm fault "vtable_patch" (Ocolos_util.Fault.Nth 1);
        let config =
          { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
        in
        Measure.ocolos_steady ~config ~profile_s:1.0 ~measure:0.5 w ~input)
  in
  Alcotest.(check bool) "rolled back once then committed" true
    (r.Measure.rollbacks = 1 && r.Measure.attempts = 2);
  let span_names =
    List.map (fun (s : Trace.span) -> s.Trace.sp_name) (Trace.spans tr)
  in
  let event_names = List.map (fun (e : Trace.event) -> e.Trace.ev_name) (Trace.events tr) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n span_names))
    [ "ocolos.run";
      "ocolos.warmup";
      "profiler.sample_window";
      "perf2bolt.convert";
      "bolt.run";
      "bolt.cfg";
      "bolt.bb_reorder";
      "bolt.func_reorder";
      "bolt.peephole";
      "bolt.emit";
      "ocolos.background";
      "txn.replace";
      "replace.stw";
      "replace.inject";
      "replace.vtable_patch";
      "replace.call_patch";
      "replace.commit";
      "ocolos.measure" ];
  Alcotest.(check bool) "rollback instant present" true (List.mem "txn.rollback" event_names);
  Alcotest.(check bool) "fault instant present" true (List.mem "fault.fired" event_names);
  (* the rolled-back and the committed attempt are two txn.replace spans *)
  Alcotest.(check int) "two replacement attempts traced" 2
    (List.length (List.filter (( = ) "txn.replace") span_names));
  (* nothing left open once the run returns *)
  Alcotest.(check (list Alcotest.reject)) "no dangling spans" [] (Trace.open_spans tr);
  (* the metrics registry saw both the rollback and the commit *)
  let cval name = Metrics.counter_value (Metrics.counter reg name) in
  Alcotest.(check int) "txn commit counted" 1 (cval "ocolos_txn_commits_total");
  Alcotest.(check int) "txn rollback counted" 1 (cval "ocolos_txn_rollbacks_total");
  (* both attempts' pauses land in the histogram *)
  let h =
    Metrics.histogram reg ~buckets:Metrics.pause_buckets "ocolos_replace_pause_seconds"
  in
  Alcotest.(check int) "pause histogram has both attempts" 2 (Metrics.hist_count h);
  let ipc = Metrics.histogram reg ~buckets:Metrics.ipc_buckets "ocolos_round_ipc" in
  Alcotest.(check int) "one round IPC observation" 1 (Metrics.hist_count ipc)

(* ---- structured event log ---- *)

(* The traced run again, now with an event log installed alongside the
   trace. Returns the Chrome bytes too: installing an event log reads the
   trace clock without ticking it, so the trace must be byte-identical to
   the no-events run. *)
let evented_ocolos_run () =
  let tr = Trace.create () in
  let reg = Metrics.create () in
  let ev = Events.create () in
  Trace.with_installed tr @@ fun () ->
  Metrics.with_installed reg @@ fun () ->
  Events.with_installed ev (fun () ->
      let w = Apps.tiny ~tx_limit:None () in
      let input = Workload.find_input w "a" in
      let fault = Ocolos_util.Fault.create ~seed:5 () in
      Ocolos_util.Fault.arm fault "vtable_patch" (Ocolos_util.Fault.Nth 1);
      let config =
        { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
      in
      let r = Measure.ocolos_steady ~config ~profile_s:1.0 ~measure:0.5 w ~input in
      (r, Chrome.to_string tr, Trace.spans tr, ev))

let test_event_log_deterministic () =
  (* Two identical fault-injected runs must serialize byte-identically —
     the JSONL log rides only the simulated clock and sequence numbers. *)
  let _, _, _, ev1 = evented_ocolos_run () in
  let _, _, _, ev2 = evented_ocolos_run () in
  Alcotest.(check bool) "log is non-trivial" true (Events.count ev1 > 10);
  Alcotest.(check string) "JSONL byte-identical" (Events.to_jsonl ev1) (Events.to_jsonl ev2)

let test_event_log_covers_pipeline_and_cross_links () =
  let r, chrome_bytes, spans, ev = evented_ocolos_run () in
  Alcotest.(check bool) "rolled back once then committed" true
    (r.Measure.rollbacks = 1 && r.Measure.attempts = 2);
  (* The no-events golden run: installing the event log must not have
     perturbed a single trace byte. *)
  let _, chrome_plain, _, _ = traced_ocolos_run () in
  Alcotest.(check string) "trace bytes unchanged by event log" chrome_plain chrome_bytes;
  let types = List.map (fun (e : Events.event) -> e.Events.e_type) (Events.events ev) in
  List.iter
    (fun t -> Alcotest.(check bool) (t ^ " logged") true (List.mem t types))
    [ "profile.window_open";
      "profile.window_close";
      "bolt.pass_start";
      "bolt.pass_end";
      "txn.begin";
      "txn.rollback";
      "txn.commit";
      "fault.fired" ];
  (* Span cross-links: events recorded inside pipeline spans carry the id
     of a span that exists in the trace with the same id. *)
  let span_ids = List.map (fun (s : Trace.span) -> s.Trace.sp_id) spans in
  let linked =
    List.filter_map (fun (e : Events.event) -> e.Events.e_span) (Events.events ev)
  in
  Alcotest.(check bool) "some events are span-linked" true (linked <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "span %d exists in the trace" id)
        true (List.mem id span_ids))
    linked;
  (* txn.rollback carries the fired point *)
  match
    List.find_opt (fun (e : Events.event) -> e.Events.e_type = "txn.rollback") (Events.events ev)
  with
  | None -> Alcotest.fail "no txn.rollback event"
  | Some e -> (
    match List.assoc_opt "point" e.Events.e_fields with
    | Some (Trace.S "vtable_patch") -> ()
    | _ -> Alcotest.fail "rollback event does not name the fired point")

let test_event_jsonl_format () =
  let tr = Trace.create () in
  let ev = Events.create () in
  Trace.with_installed tr (fun () ->
      Events.record ev "first";
      Trace.with_span tr "outer" (fun _ ->
          Events.record ev "inner" ~fields:[ ("k", Trace.S "v"); ("n", Trace.I 3) ]));
  match Events.events ev with
  | [ e1; e2 ] ->
    Alcotest.(check string) "bare event golden"
      "{\"seq\":0,\"ts_us\":0,\"type\":\"first\",\"span\":null,\"fields\":{}}"
      (Events.event_to_string e1);
    (* inside the span: ts after the span-begin tick, span id linked *)
    Alcotest.(check string) "in-span event golden"
      "{\"seq\":1,\"ts_us\":1,\"type\":\"inner\",\"span\":0,\"fields\":{\"k\":\"v\",\"n\":3}}"
      (Events.event_to_string e2);
    Alcotest.(check string) "jsonl is lines + trailing newline"
      (Events.event_to_string e1 ^ "\n" ^ Events.event_to_string e2 ^ "\n")
      (Events.to_jsonl ev)
  | l -> Alcotest.failf "expected two events, got %d" (List.length l)

(* ---- the one emit point and its catalog ---- *)

(* Run [f] with a fresh trace, event log and registry installed. *)
let with_sinks f =
  let tr = Trace.create () and ev = Events.create () and reg = Metrics.create () in
  Trace.with_installed tr (fun () ->
      Events.with_installed ev (fun () -> Metrics.with_installed reg f));
  (tr, ev, reg)

let test_emit () =
  let drop_block n =
    [ ("point", Trace.S "bolt.miscompile.drop_block"); ("mutations", Trace.I n) ]
  in
  let tr, ev, reg =
    with_sinks (fun () ->
        Events.emit "txn.rollback"
          [ ("point", Trace.S "vtable_patch"); ("hit", Trace.I 2); ("undone", Trace.I 5) ];
        Events.emit "bolt.miscompile.applied" (drop_block 3);
        Events.emit "bolt.miscompile.applied" (drop_block 4))
  in
  (* Only txn.rollback is also an instant; its tick puts the event at 1. *)
  Alcotest.(check string) "instant bytes"
    "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"ocolos\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"pipeline\"}},{\"ph\":\"i\",\"s\":\"t\",\"name\":\"txn.rollback\",\"cat\":\"ocolos\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{\"point\":\"vtable_patch\",\"hit\":2,\"undone\":5}}],\"displayTimeUnit\":\"ms\"}"
    (Chrome.to_string tr);
  Alcotest.(check string) "event bytes"
    "{\"seq\":0,\"ts_us\":1,\"type\":\"txn.rollback\",\"span\":null,\"fields\":{\"point\":\"vtable_patch\",\"hit\":2,\"undone\":5}}\n\
     {\"seq\":1,\"ts_us\":1,\"type\":\"bolt.miscompile.applied\",\"span\":null,\"fields\":{\"point\":\"bolt.miscompile.drop_block\",\"mutations\":3}}\n\
     {\"seq\":2,\"ts_us\":1,\"type\":\"bolt.miscompile.applied\",\"span\":null,\"fields\":{\"point\":\"bolt.miscompile.drop_block\",\"mutations\":4}}\n"
    (Events.to_jsonl ev);
  Alcotest.(check string) "counter bytes"
    "# TYPE ocolos_miscompile_mutations_total counter\n\
     ocolos_miscompile_mutations_total{point=\"bolt.miscompile.drop_block\"} 7\n\
     # TYPE ocolos_txn_mutations_undone_total counter\n\
     ocolos_txn_mutations_undone_total 5\n\
     # TYPE ocolos_txn_rollbacks_total counter\n\
     ocolos_txn_rollbacks_total 1\n"
    (Metrics.to_prometheus reg);
  Alcotest.check_raises "unknown type"
    (Invalid_argument "Events.emit: unknown event type txn.rolback") (fun () ->
      Events.emit "txn.rolback" []);
  let tr, ev, _ =
    with_sinks (fun () ->
        Trace.in_replica 2 (fun () ->
            Events.emit "fleet.campaign_aborted" [ ("reason", Trace.S "watchdog") ]))
  in
  let tagged = [ ("reason", Trace.S "watchdog"); ("replica", Trace.I 2) ] in
  match (Trace.events tr, Events.events ev) with
  | [ i ], [ e ] ->
    Alcotest.(check bool) "instant tagged" true (i.Trace.ev_args = tagged);
    Alcotest.(check bool) "event tagged" true (e.Events.e_fields = tagged)
  | _ -> Alcotest.fail "expected one instant and one event"

(* Every instant of a 4-replica injected-regression fleet run has its event,
   with the same type and fields, in order; every catalog-fed counter in the
   registry equals its sum recomputed from the event log, so no family is
   also fed by a direct [Metrics.count]. *)
let test_catalog_consistency () =
  let config =
    { Fleet.default_config with
      Fleet.canary_fraction = 0.25;
      canary_ipc_scale = 0.5;
      daemon =
        { Daemon.default_config with
          Daemon.profile_s = 1.0;
          warmup_s = 0.5;
          min_interval_s = 2.0 } }
  in
  let tr, ev, reg =
    with_sinks (fun () ->
        let report, _ = Ocolos_sim.Fleet_driver.run ~replicas:4 ~seed:2 ~ticks:5 ~config () in
        Alcotest.(check bool) "rolled back" true (report.Ocolos_sim.Fleet_driver.fd_rollbacks > 0))
  in
  let kind type_ = List.assoc type_ Events.catalog in
  let show (name, fields) =
    let value = function
      | Trace.S s -> s
      | Trace.I i -> string_of_int i
      | Trace.F f -> string_of_float f
      | Trace.B b -> string_of_bool b
    in
    String.concat " " (name :: List.map (fun (k, v) -> k ^ "=" ^ value v) fields)
  in
  let instants =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.ev_kind = Trace.Instant then Some (e.Trace.ev_name, e.Trace.ev_args) else None)
      (Trace.events tr)
  in
  let instant_events =
    List.filter_map
      (fun (e : Events.event) ->
        if (kind e.Events.e_type).Events.instant then Some (e.Events.e_type, e.Events.e_fields)
        else None)
      (Events.events ev)
  in
  Alcotest.(check bool) "has rolled_back instant" true
    (List.mem_assoc "fleet.rolled_back" instants);
  Alcotest.(check (list string)) "instants = instant events"
    (List.map show instants) (List.map show instant_events);
  (* Recompute each catalog family from the log. *)
  let derived = Hashtbl.create 16 in
  List.iter
    (fun (e : Events.event) ->
      List.iter
        (fun (f : Events.family) ->
          let field name = List.assoc name e.Events.e_fields in
          let labels =
            List.sort compare
              (List.map
                 (fun l -> match field l with Trace.S s -> (l, s) | _ -> assert false)
                 f.Events.labels)
          in
          let n =
            match f.Events.by with
            | Events.One -> 1
            | Events.Field name -> ( match field name with Trace.I n -> n | _ -> assert false)
          in
          let key = (f.Events.family, labels) in
          Hashtbl.replace derived key (n + Option.value ~default:0 (Hashtbl.find_opt derived key)))
        (kind e.Events.e_type).Events.counters)
    (Events.events ev);
  let families =
    List.concat_map
      (fun (_, (k : Events.kind)) ->
        List.map (fun (f : Events.family) -> f.Events.family) k.Events.counters)
      Events.catalog
  in
  let registry =
    match Metrics.to_json reg with
    | Json.Obj [ ("metrics", Json.List ms) ] ->
      List.filter_map
        (function
          | Json.Obj
              [ ("name", Json.String name);
                ("labels", Json.Obj labels);
                ("type", Json.String "counter");
                ("value", Json.Int v) ]
            when List.mem name families ->
            Some
              ( ( name,
                  List.map (function k, Json.String s -> (k, s) | _ -> assert false) labels ),
                v )
          | _ -> None)
        ms
    | _ -> Alcotest.fail "unexpected registry JSON"
  in
  Alcotest.(check bool) "some catalog counters" true (List.length registry > 5);
  List.iter
    (fun ((name, labels), v) ->
      Alcotest.(check int) name v
        (Option.value ~default:0 (Hashtbl.find_opt derived (name, labels))))
    registry;
  Alcotest.(check int) "every derived counter registered" (Hashtbl.length derived)
    (List.length registry)

(* ---- per-replica Perfetto process tracks ---- *)

let test_chrome_replica_pids () =
  let tr = Trace.create () in
  Trace.with_span tr "controller" (fun _ -> ());
  Trace.in_replica 0 (fun () -> Trace.with_span tr "r0.work" (fun _ -> ()));
  Trace.in_replica 3 (fun () -> Trace.instant tr "r3.mark");
  let s = Chrome.to_string tr in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  (* replica n lands on pid n+2 (controller keeps pid 1), with its own
     process_name meta; the replica attr itself is stripped from args *)
  Alcotest.(check bool) "replica 0 process meta" true
    (contains s "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"ocolos replica 0\"}}");
  Alcotest.(check bool) "replica 3 process meta" true
    (contains s "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":5,\"tid\":1,\"args\":{\"name\":\"ocolos replica 3\"}}");
  Alcotest.(check bool) "replica span on its pid" true
    (contains s "\"name\":\"r0.work\",\"cat\":\"ocolos\",\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":2,\"tid\":1,\"args\":{}");
  Alcotest.(check bool) "controller span stays on pid 1" true
    (contains s "\"name\":\"controller\",\"cat\":\"ocolos\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1");
  Alcotest.(check bool) "replica attr stripped from args" true
    (not (contains s "\"replica\""));
  (* a replica-free trace emits no replica metas at all (golden-protected) *)
  let tr2 = Trace.create () in
  Trace.with_span tr2 "a" (fun _ -> ());
  Alcotest.(check bool) "no replica metas without replicas" true
    (not (contains (Chrome.to_string tr2) "replica"))

(* ---- layout-health attribution ---- *)

let test_layout_health_hand_computed () =
  let t = Layout_health.create () in
  (* C0: two windows totalling 20k instrs, 10k cycles, 40 L1i misses, 10
     iTLB, 100 BTB, 3000 taken. C1: one window, 10k instrs, 4k cycles,
     5/1/10/1200. All rates hand-computed. *)
  Layout_health.record_window t ~version:0
    { Layout_health.s_instructions = 12_000;
      s_cycles = 6_000.0;
      s_l1i_misses = 30;
      s_itlb_misses = 6;
      s_btb_misses = 70;
      s_taken_branches = 2_000 };
  Layout_health.record_window t ~replica:1 ~version:0
    { Layout_health.s_instructions = 8_000;
      s_cycles = 4_000.0;
      s_l1i_misses = 10;
      s_itlb_misses = 4;
      s_btb_misses = 30;
      s_taken_branches = 1_000 };
  Layout_health.record_window t ~version:1
    { Layout_health.s_instructions = 10_000;
      s_cycles = 4_000.0;
      s_l1i_misses = 5;
      s_itlb_misses = 1;
      s_btb_misses = 10;
      s_taken_branches = 1_200 };
  Alcotest.(check (list int)) "versions seen" [ 0; 1 ] (Layout_health.versions t);
  (match Layout_health.rates t 0 with
  | None -> Alcotest.fail "no C0 rates"
  | Some r ->
    Alcotest.(check int) "C0 windows" 2 r.Layout_health.r_windows;
    Alcotest.(check int) "C0 instructions" 20_000 r.Layout_health.r_instructions;
    Alcotest.(check (float 1e-9)) "C0 ipc" 2.0 r.Layout_health.r_ipc;
    Alcotest.(check (float 1e-9)) "C0 l1i mpki" 2.0 r.Layout_health.r_l1i_mpki;
    Alcotest.(check (float 1e-9)) "C0 itlb mpki" 0.5 r.Layout_health.r_itlb_mpki;
    Alcotest.(check (float 1e-9)) "C0 btb mpki" 5.0 r.Layout_health.r_btb_mpki;
    Alcotest.(check (float 1e-9)) "C0 taken pki" 150.0 r.Layout_health.r_taken_pki);
  (match Layout_health.rates t 1 with
  | None -> Alcotest.fail "no C1 rates"
  | Some r ->
    Alcotest.(check (float 1e-9)) "C1 ipc" 2.5 r.Layout_health.r_ipc;
    Alcotest.(check (float 1e-9)) "C1 l1i mpki" 0.5 r.Layout_health.r_l1i_mpki);
  Alcotest.(check (list int)) "replica breakdown recorded" [ 1 ] (Layout_health.replicas t);
  (* per-function contribution deltas: f regresses (+1.0 L1i/Ki), g
     improves; the ranking puts f first *)
  Layout_health.record_func_window t ~version:0 ~fid:1 ~name:"f"
    { Layout_health.fc_l1i = 20; fc_itlb = 0; fc_btb = 0; fc_taken = 0 };
  Layout_health.record_func_window t ~version:0 ~fid:2 ~name:"g"
    { Layout_health.fc_l1i = 20; fc_itlb = 0; fc_btb = 0; fc_taken = 0 };
  Layout_health.record_func_window t ~version:1 ~fid:1 ~name:"f"
    { Layout_health.fc_l1i = 20; fc_itlb = 0; fc_btb = 0; fc_taken = 0 };
  Layout_health.record_func_window t ~version:1 ~fid:2 ~name:"g"
    { Layout_health.fc_l1i = 2; fc_itlb = 0; fc_btb = 0; fc_taken = 0 };
  match Layout_health.regressions t ~from_version:0 ~to_version:1 with
  | fd_f :: fd_g :: _ ->
    Alcotest.(check string) "worst regression first" "f" fd_f.Layout_health.fd_name;
    (* f: 20/20k = 1.0/Ki at C0, 20/10k = 2.0/Ki at C1 -> +1.0 *)
    Alcotest.(check (float 1e-9)) "f delta" 1.0 fd_f.Layout_health.fd_l1i;
    (* g: 1.0/Ki -> 0.2/Ki -> -0.8 *)
    Alcotest.(check (float 1e-9)) "g delta" (-0.8) fd_g.Layout_health.fd_l1i
  | _ -> Alcotest.fail "expected two function rows"

let test_timeline_trace_integration () =
  let tr = Trace.create () in
  let t =
    Trace.with_installed tr (fun () ->
        let w = Apps.tiny ~tx_limit:None () in
        let input = Workload.find_input w "a" in
        Timeline.run ~warmup_s:2 ~profile_s:1 ~post_s:2 w ~input)
  in
  let windows = List.length t.Timeline.points in
  let span_names =
    List.map (fun (s : Trace.span) -> s.Trace.sp_name) (Trace.spans tr)
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n span_names))
    [ "timeline.run";
      "timeline.warmup";
      "timeline.profiling";
      "timeline.perf2bolt+bolt";
      "timeline.replace";
      "timeline.optimized" ];
  let tps_samples =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.ev_kind = Trace.Counter && e.Trace.ev_name = "timeline.tps")
      (Trace.events tr)
  in
  Alcotest.(check int) "one tps sample per window" windows (List.length tps_samples);
  (* counter samples ride the anchored clock: strictly increasing, about one
     simulated second apart *)
  let ts = List.map (fun (e : Trace.event) -> e.Trace.ev_ts_us) tps_samples in
  let rec increasing = function
    | a :: b :: rest -> a < b && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "sample timestamps increase" true (increasing ts);
  Alcotest.(check bool) "first window ends at ~1 simulated second" true
    (match ts with t0 :: _ -> t0 >= 1_000_000 && t0 < 1_100_000 | [] -> false)

(* ---- single-process attempt accounting through the registry ---- *)

(* A single-process campaign (a one-replica fleet) with [vtable_patch]
   armed under [schedule]. Attempts are read off the transaction counters
   (every attempt commits, rolls back or diverges) and retries off the
   fleet's, which moves only when a retry actually runs. *)
let run_daemon_with_fault schedule ~max_retries ~seconds =
  let reg = Metrics.create () in
  Metrics.with_installed reg (fun () ->
      let w = Apps.tiny ~tx_limit:None () in
      let input = Workload.find_input w "a" in
      let proc = Workload.launch w ~input in
      let fault = Ocolos_util.Fault.create ~seed:5 () in
      Ocolos_util.Fault.arm fault "vtable_patch" schedule;
      let config =
        { Daemon.default_config with
          Daemon.profile_s = 1.0;
          warmup_s = 0.5;
          max_retries;
          retry_backoff_s = 1.0;
          min_interval_s = 30.0 }
      in
      let fleet =
        Fleet.create
          ~config:{ Fleet.default_config with Fleet.daemon = config }
          ~ocolos_config:
            { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
          [| proc |]
      in
      (* Stop at the first give-up: after it the controller starts a fresh
         campaign, which would blur the per-campaign counters. *)
      let s = ref 0 and gave_up = ref false in
      while (not !gave_up) && !s < seconds do
        incr s;
        Ocolos_proc.Proc.run ~cycle_limit:(Clock.seconds_to_cycles (float_of_int !s)) proc;
        match Fleet.tick fleet ~now_s:(float_of_int !s) with
        | Fleet.Rolled_back _ -> gave_up := true
        | _ -> ()
      done;
      reg)

let counter_of reg name = Metrics.counter_value (Metrics.counter reg name)

let attempts reg =
  counter_of reg "ocolos_txn_commits_total"
  + counter_of reg "ocolos_txn_rollbacks_total"
  + counter_of reg "ocolos_txn_divergence_rollbacks_total"

let test_daemon_attempt_accounting_commit () =
  (* Nth 1: attempt 1 rolls back, attempt 2 commits. Each counter must move
     exactly once per event: 2 attempts, 1 retry, 1 rollback, 1 commit. *)
  let reg = run_daemon_with_fault (Ocolos_util.Fault.Nth 1) ~max_retries:3 ~seconds:10 in
  Alcotest.(check int) "attempts" 2 (attempts reg);
  Alcotest.(check int) "retries = attempts - 1" 1 (counter_of reg "ocolos_fleet_retries_total");
  Alcotest.(check int) "rollbacks" 1 (counter_of reg "ocolos_txn_rollbacks_total");
  Alcotest.(check int) "replacements" 1 (counter_of reg "ocolos_txn_commits_total");
  Alcotest.(check int) "rollouts" 1 (counter_of reg "ocolos_fleet_rollouts_total")

let test_daemon_attempt_accounting_giving_up () =
  (* Every 1 with max_retries 2: attempts 1..3 all roll back, then the
     controller takes the staged rollback. attempts = 3, retries = 2
     (counted when each retry runs, not when it is scheduled),
     rollbacks = 3. *)
  let reg = run_daemon_with_fault (Ocolos_util.Fault.Every 1) ~max_retries:2 ~seconds:12 in
  Alcotest.(check int) "attempts" 3 (attempts reg);
  Alcotest.(check int) "retries" 2 (counter_of reg "ocolos_fleet_retries_total");
  Alcotest.(check int) "rollbacks" 3 (counter_of reg "ocolos_txn_rollbacks_total");
  Alcotest.(check int) "nothing replaced" 0 (counter_of reg "ocolos_txn_commits_total");
  Alcotest.(check int) "one staged rollback" 1 (counter_of reg "ocolos_fleet_rollbacks_total")

let suite =
  [ QCheck_alcotest.to_alcotest prop_span_tree_well_formed;
    Alcotest.test_case "span close out of order" `Quick test_span_close_out_of_order;
    Alcotest.test_case "with_span closes on exception" `Quick test_with_span_exception;
    Alcotest.test_case "clock is monotonic and ticks" `Quick test_clock_monotonic;
    Alcotest.test_case "ambient helpers no-op when uninstalled" `Quick
      test_ambient_helpers_noop_when_uninstalled;
    Alcotest.test_case "scoped sinks nest and unwind" `Quick test_scoped_sinks_nest_and_unwind;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_bucket_boundaries;
    Alcotest.test_case "metric identity and kinds" `Quick test_metric_identity_and_kinds;
    Alcotest.test_case "export ignores insertion order" `Quick
      test_export_insertion_order_independent;
    Alcotest.test_case "prometheus format golden" `Quick test_prometheus_format;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_golden;
    Alcotest.test_case "json number rendering" `Quick test_json_number_rendering;
    Alcotest.test_case "fixed-seed run emits identical bytes" `Quick
      test_end_to_end_deterministic;
    Alcotest.test_case "span tree covers the pipeline" `Quick test_end_to_end_span_coverage;
    Alcotest.test_case "event log is byte-deterministic" `Quick test_event_log_deterministic;
    Alcotest.test_case "event log covers the pipeline and cross-links spans" `Quick
      test_event_log_covers_pipeline_and_cross_links;
    Alcotest.test_case "event JSONL format golden" `Quick test_event_jsonl_format;
    Alcotest.test_case "emit writes instant, event and counters" `Quick test_emit;
    Alcotest.test_case "catalog consistent over a fleet rollback" `Quick
      test_catalog_consistency;
    Alcotest.test_case "chrome gives replicas their own pids" `Quick test_chrome_replica_pids;
    Alcotest.test_case "layout health matches hand computation" `Quick
      test_layout_health_hand_computed;
    Alcotest.test_case "timeline feeds the trace" `Quick test_timeline_trace_integration;
    Alcotest.test_case "daemon attempt accounting (commit)" `Quick
      test_daemon_attempt_accounting_commit;
    Alcotest.test_case "daemon attempt accounting (giving up)" `Quick
      test_daemon_attempt_accounting_giving_up ]
