(* Fig. 7 driver: per-second throughput (and modeled 95th-percentile
   latency) of a server workload before, during, and after OCOLOS's code
   replacement, across the paper's five regions: (1) warmup on the original
   binary, (2) LBR profiling, (3) background perf2bolt + BOLT, (4) the
   stop-the-world replacement pause, (5) optimized steady state. *)

open Ocolos_workloads
open Ocolos_proc
module Trace = Ocolos_obs.Trace

type region = Warmup | Profiling | Background | Pause | Optimized

let region_name = function
  | Warmup -> "warmup"
  | Profiling -> "profiling"
  | Background -> "perf2bolt+bolt"
  | Pause -> "replace"
  | Optimized -> "optimized"

type point = { second : int; tps : float; p95_ms : float; region : region }

type t = {
  points : point list;
  stats : Ocolos_core.Ocolos.replacement_stats;
  perf2bolt_seconds : float;
  bolt_seconds : float;
}

(* Modeled per-window latency: each worker thread serves requests serially,
   so mean latency is threads/tps; p95 carries queueing skew, plus the full
   stop-the-world pause in the window where it occurs. *)
let p95_of ~nthreads ~tps ~extra_stall =
  if tps <= 0.0 then 1000.0 *. (extra_stall +. 1.0)
  else 1000.0 *. ((1.35 *. float_of_int nthreads /. tps) +. extra_stall)

let run ?config ?(seed = 1234) ?(warmup_s = 8) ?(profile_s = 4) ?(post_s = 12)
    (w : Workload.t) ~input =
  Trace.span "timeline.run"
    ~attrs:[ ("workload", Trace.S w.Workload.name); ("seed", Trace.I seed) ]
  @@ fun _ ->
  let proc = Workload.launch ~seed w ~input in
  let nthreads = Array.length proc.Proc.threads in
  let oc = Ocolos_core.Ocolos.attach ?config proc in
  let cost =
    (match config with Some c -> c | None -> Ocolos_core.Ocolos.default_config)
      .Ocolos_core.Ocolos.cost
  in
  let points = ref [] in
  let second = ref 0 in
  let horizon = ref 0.0 in
  (* Each window anchors the trace clock at its end and plots the window's
     throughput/latency as counter tracks, so the exported trace shows the
     Fig. 7 curve alongside the span tree. *)
  let window ?(extra_stall = 0.0) region =
    let before = Proc.total_counters proc in
    horizon := !horizon +. 1.0;
    Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc;
    Trace.clock !horizon;
    let c = Ocolos_uarch.Counters.diff (Proc.total_counters proc) before in
    let tps = float_of_int c.Ocolos_uarch.Counters.transactions in
    let p95_ms = p95_of ~nthreads ~tps ~extra_stall in
    Trace.plot "timeline.tps" [ ("tps", tps) ];
    Trace.plot "timeline.p95_ms" [ ("p95_ms", p95_ms) ];
    points := { second = !second; tps; p95_ms; region } :: !points;
    incr second
  in
  let region_span region n body =
    Trace.span ("timeline." ^ region_name region)
      ~attrs:[ ("windows", Trace.I n) ]
      (fun _ -> body ())
  in
  region_span Warmup warmup_s (fun () ->
      for _ = 1 to warmup_s do
        window Warmup
      done);
  Ocolos_core.Ocolos.start_profiling oc;
  region_span Profiling profile_s (fun () ->
      for _ = 1 to profile_s do
        window Profiling
      done);
  let profile, perf2bolt_seconds = Ocolos_core.Ocolos.stop_profiling oc in
  let gated = function
    | Ok x -> x
    | Error reason -> Fmt.failwith "Timeline: nothing committed (%s)" reason
  in
  let result, bolt_seconds =
    gated (Ocolos_core.Step.build (Ocolos_core.Guard.create ()) oc profile)
  in
  (* Region 3: the background work contends with the target. We charge the
     contention stall at the start of each affected window. *)
  let background = perf2bolt_seconds +. bolt_seconds in
  let bg_windows = int_of_float (ceil background) in
  region_span Background bg_windows (fun () ->
      for i = 1 to bg_windows do
        let share = Float.min 1.0 (background -. float_of_int (i - 1)) in
        Proc.stall_all proc
          ~cycles:
            (Clock.seconds_to_cycles (share *. cost.Ocolos_core.Cost.background_contention))
          ~category:`Backend;
        window Background
      done);
  (* Region 4: stop-the-world replacement, shadow-gated. *)
  let stats =
    region_span Pause 1 (fun () ->
        let stats = gated Ocolos_core.Step.(committed (commit oc result)) in
        Proc.stall_all proc
          ~cycles:(Clock.seconds_to_cycles stats.Ocolos_core.Ocolos.pause_seconds)
          ~category:`Backend;
        window ~extra_stall:stats.Ocolos_core.Ocolos.pause_seconds Pause;
        stats)
  in
  (* Region 5: optimized steady state. *)
  region_span Optimized post_s (fun () ->
      for _ = 1 to post_s do
        window Optimized
      done);
  { points = List.rev !points; stats; perf2bolt_seconds; bolt_seconds }
