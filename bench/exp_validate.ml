(* Miscompile-containment overhead: Tier-1 translation-validation latency
   relative to the BOLT phase it gates, and the Tier-2 shadow-execution
   cost per campaign (prepare + arm + replay).

   Emits BENCH_validate.json. Exits non-zero if the validator costs more
   than 5% of the campaign's BOLT-phase wall time on any workload —
   validation runs inside every campaign, so it must stay noise next to
   the optimization it checks. The BOLT phase is perf2bolt aggregation
   plus the optimizer itself, matching the paper's cost structure (Table
   II: perf2bolt dominates; a layout cannot be produced without it); the
   optimizer-only ratio is reported alongside for visibility. The shadow
   numbers are reported unguarded: shadowing is sampled
   (Daemon.shadow_every), so its budget is a policy knob, not an
   invariant.

   Wall times use the median of [repeats] runs; like the engine
   microbenchmark, meaningful numbers need `--profile release`. *)

open Ocolos_workloads
module O = Ocolos_core.Ocolos
module Txn = Ocolos_core.Txn
module Shadow = Ocolos_core.Shadow
module Bolt = Ocolos_bolt.Bolt
module Validate = Ocolos_bolt.Validate
module Proc = Ocolos_proc.Proc
module Perf = Ocolos_profiler.Perf
module Perf2bolt = Ocolos_profiler.Perf2bolt
module Json = Ocolos_obs.Json
module Clock = Ocolos_sim.Clock

let output = "BENCH_validate.json"
let repeats = 7
let max_ratio = 0.05

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let timed_median f =
  let r, _ = time f in
  let walls = List.init repeats (fun _ -> snd (time f)) in
  (r, median walls)

(* One campaign's worth of work on [w]: sample the live process at the
   daemon's cadence (Daemon.default_config.profile_s simulated seconds —
   the window every real campaign's BOLT consumes), then time perf2bolt
   aggregation, BOLT, the Tier-1 validator over its output, and one
   Tier-2 shadow cycle around the commit. *)
let bench (w : Workload.t) =
  let input = List.hd w.Workload.inputs in
  Common.progress "validate: %s/%s, %d BOLT + validator runs" w.Workload.name
    input.Input.name (repeats + 1);
  let proc = Workload.launch w ~input in
  let oc = O.attach proc in
  let profile_s = Ocolos_core.Daemon.default_config.Ocolos_core.Daemon.profile_s in
  Proc.run ~cycle_limit:(Clock.seconds_to_cycles Common.warmup) proc;
  let session = Perf.start proc in
  Proc.run ~cycle_limit:(Clock.seconds_to_cycles (Common.warmup +. profile_s)) proc;
  let samples = Perf.stop session in
  let binary = O.current_binary oc in
  let profile, perf2bolt_wall =
    timed_median (fun () -> Perf2bolt.convert ~binary samples)
  in
  (* As in a campaign ([Ocolos.run_bolt] then [Ocolos.validate_result]):
     each BOLT run decodes into a fresh CFG memo, and the validator checks
     against the memo of the run that produced its input. *)
  let bolt () =
    let cfg_of = Ocolos_bolt.Cfg.memoize binary in
    (Bolt.run ~cfg_of ~binary ~profile (), cfg_of)
  in
  let (result, cfg_of), bolt_wall = timed_median bolt in
  let report, validate_wall = timed_median (fun () -> Validate.run ~cfg_of ~binary result) in
  if not (Validate.ok report) then begin
    Printf.eprintf "FAIL: validator rejected a clean BOLT result on %s\n"
      w.Workload.name;
    exit 2
  end;
  (* The shadow cycle is once per campaign, against the live process: time
     the pre-commit clone, then the post-replacement clone + dual replay
     (the part that runs inside the stop-the-world transaction). *)
  let pre, shadow_prepare = time (fun () -> Shadow.prepare oc) in
  let verdict = ref Shadow.Match in
  let shadow_check = ref 0.0 in
  let verify () =
    let v, wall =
      time (fun () ->
          let shadow = Shadow.arm pre oc result in
          Shadow.check shadow)
    in
    shadow_check := wall;
    verdict := v;
    match v with Shadow.Match -> Ok () | Shadow.Divergence why -> Error why
  in
  (match Txn.replace_code ~verify oc result with
  | Txn.Committed _ -> ()
  | Txn.Diverged dv ->
    Printf.eprintf "FAIL: shadow flagged a clean commit on %s: %s\n" w.Workload.name
      dv.Txn.dv_reason;
    exit 2
  | Txn.Rolled_back _ ->
    Printf.eprintf "FAIL: clean commit rolled back on %s\n" w.Workload.name;
    exit 2);
  let phase_wall = perf2bolt_wall +. bolt_wall in
  let ratio = validate_wall /. phase_wall in
  let bolt_only_ratio = validate_wall /. bolt_wall in
  Printf.printf
    "%s: perf2bolt %.1f ms + bolt %.1f ms, validate %.2f ms (%.1f%% of phase, \
     %.1f%% of optimizer alone), shadow %.1f + %.1f ms\n%!"
    w.Workload.name (perf2bolt_wall *. 1e3) (bolt_wall *. 1e3)
    (validate_wall *. 1e3) (ratio *. 100.0) (bolt_only_ratio *. 100.0)
    (shadow_prepare *. 1e3) (!shadow_check *. 1e3);
  Printf.printf
    "  validated %d funcs / %d blocks / %d instrs; shadow verdict %s\n%!"
    report.Validate.rp_funcs report.Validate.rp_blocks report.Validate.rp_instrs
    (match !verdict with Shadow.Match -> "match" | Shadow.Divergence w -> w);
  ( Json.Obj
      [ ("workload", Json.String w.Workload.name);
        ("perf2bolt_wall_s", Json.Float perf2bolt_wall);
        ("bolt_wall_s", Json.Float bolt_wall);
        ("validate_wall_s", Json.Float validate_wall);
        ("validate_ratio", Json.Float ratio);
        ("validate_vs_bolt_ratio", Json.Float bolt_only_ratio);
        ("shadow_prepare_s", Json.Float shadow_prepare);
        ("shadow_check_s", Json.Float !shadow_check);
        ("shadow_total_s", Json.Float (shadow_prepare +. !shadow_check));
        ("funcs_validated", Json.Int report.Validate.rp_funcs);
        ("blocks_validated", Json.Int report.Validate.rp_blocks);
        ("instrs_validated", Json.Int report.Validate.rp_instrs) ],
    (w.Workload.name, ratio) )

let run () =
  let workloads = [ Lazy.force Common.mysql; Lazy.force Common.memcached ] in
  let rows, ratios = List.split (List.map bench workloads) in
  let oc = open_out output in
  output_string oc (Json.to_string (Json.List rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" output;
  List.iter
    (fun (name, ratio) ->
      if ratio >= max_ratio then begin
        Printf.eprintf
          "FAIL: Tier-1 validation cost %.1f%% of the BOLT phase (perf2bolt + \
           llvm-bolt) on %s (budget %.0f%%)\n"
          (ratio *. 100.0) name (max_ratio *. 100.0);
        exit 1
      end)
    ratios
