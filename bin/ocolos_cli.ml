(* ocolos_cli: drive the simulator from the command line.

   Subcommands:
     list                          workloads and their inputs
     inspect  -w W                 binary summary and characterization
     run      -w W -i I [-s SEC]   steady-state throughput of the original
     bolt     -w W -i I            offline BOLT: profile, optimize, compare
     ocolos   -w W -i I            online OCOLOS: attach, replace, compare
                                   (--fault POINT[:SPEC] injects deterministic
                                   faults anywhere in the pipeline)
     faults                        list fault domains and injection points
     validate -w W -i I            Tier-1 translation validation of a BOLT
                                   result without committing; --corrupt
                                   POINT[:SALT] demonstrates the gate,
                                   --expect-reject makes it a CI smoke
     chaos                         kill/restart crash-recovery sweep
     osr-smoke                     never-returning event loop through a full
                                   campaign; fails unless the original text is
                                   fully unmapped and the reachability audit
                                   is clean
     fleet                         N-replica canary rollout under open-loop
                                   traffic (--inject-regression demonstrates
                                   the guard-driven staged rollback)
     explain                       fleet rollout with layout-health attribution
                                   armed: breached signal, per-version deltas,
                                   regressed functions, rollback event
     timeline -w W -i I            per-second Fig.7-style timeline
     topdown  -w W -i I            stage-1 TopDown bottleneck analysis
     stats    -w W -i I            pipeline phase + TopDown attribution tables

   run/bolt/ocolos/chaos/fleet/explain/timeline/stats accept --trace FILE
   (Chrome/Perfetto trace-event JSON of the run's span tree), --metrics FILE
   (Prometheus text dump of the run's metrics registry), and --events FILE
   (JSONL structured event log with span IDs cross-linking into the trace);
   all are byte-deterministic for identical invocations. *)

open Cmdliner
open Ocolos_workloads
module Measure = Ocolos_sim.Measure
module Timeline = Ocolos_sim.Timeline
module Obs = Ocolos_obs
module Table = Ocolos_util.Table

let workloads () =
  [ ("mysql", fun () -> Apps.mysql_like ());
    ("mongodb", fun () -> Apps.mongodb_like ());
    ("memcached", fun () -> Apps.memcached_like ());
    ("verilator", fun () -> Apps.verilator_like ());
    ("clang", fun () -> Apps.clang_like ());
    ("event_loop", fun () -> Apps.event_loop ());
    ("tiny", fun () -> Apps.tiny ~tx_limit:None ()) ]

let load_workload name =
  match List.assoc_opt name (workloads ()) with
  | Some f -> f ()
  | None -> Fmt.failwith "unknown workload %S (try `ocolos_cli list`)" name

let workload_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload name (see $(b,list)).")

let input_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input name for the workload.")

let seconds_arg =
  Arg.(
    value & opt float 2.0
    & info [ "s"; "seconds" ] ~docv:"SEC" ~doc:"Measurement duration in simulated seconds.")

(* ---- observability plumbing (--trace / --metrics) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it as Chrome/Perfetto \
           trace-event JSON to $(docv) (load in ui.perfetto.dev or chrome://tracing).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect the run's metrics registry and write it in Prometheus text \
           format to $(docv).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Record the run's structured event log (profile windows, BOLT passes, \
           transaction phases, guard transitions, canary verdicts) and write it as \
           JSONL to $(docv).")

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Run [f tr ev] with a fresh trace [tr], metrics registry and event log
   [ev] installed, then dump the requested outputs. Emission uses only the
   simulated clock, so identical invocations write byte-identical files. *)
let observed trace_path metrics_path events_path f =
  let tr = Obs.Trace.create () in
  let reg = Obs.Metrics.create () in
  let ev = Obs.Events.create () in
  Obs.Trace.with_installed tr (fun () ->
      Obs.Metrics.with_installed reg (fun () ->
          Obs.Events.with_installed ev (fun () -> f tr ev)));
  (match trace_path with
  | Some p ->
    Obs.Chrome.save p tr;
    Fmt.pr "wrote trace-event JSON (%d spans, %d events) to %s@." (Obs.Trace.span_count tr)
      (List.length (Obs.Trace.events tr))
      p
  | None -> ());
  (match metrics_path with
  | Some p ->
    write_file p (Obs.Metrics.to_prometheus reg);
    Fmt.pr "wrote metrics to %s@." p
  | None -> ());
  match events_path with
  | Some p ->
    Obs.Events.save p ev;
    Fmt.pr "wrote %d events to %s@." (Obs.Events.count ev) p
  | None -> ()

(* {!observed}, when the user asked for any output. *)
let with_obs trace_path metrics_path events_path f =
  if trace_path = None && metrics_path = None && events_path = None then f ()
  else observed trace_path metrics_path events_path (fun _ _ -> f ())

let list_cmd =
  let run () =
    List.iter
      (fun (name, f) ->
        let w = f () in
        Fmt.pr "%-10s inputs: %s@." name
          (String.concat ", "
             (List.map (fun (i : Input.t) -> i.Input.name) w.Workload.inputs)))
      (workloads ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and inputs") Term.(const run $ const ())

let inspect_cmd =
  let run name =
    let w = load_workload name in
    let b = w.Workload.binary in
    Fmt.pr "%a@." Ocolos_binary.Binary.pp_summary b;
    Fmt.pr "direct call sites: %d@." (List.length (Ocolos_binary.Binary.direct_call_sites b));
    Fmt.pr "sections:@.";
    List.iter
      (fun (s : Ocolos_binary.Binary.section) ->
        Fmt.pr "  %-14s base 0x%x size %d@." s.Ocolos_binary.Binary.sec_name
          s.Ocolos_binary.Binary.sec_base s.Ocolos_binary.Binary.sec_size)
      b.Ocolos_binary.Binary.sections
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Binary summary") Term.(const run $ workload_arg)

let run_cmd =
  let run name input_name seconds trace metrics events =
    with_obs trace metrics events @@ fun () ->
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let s = Measure.steady ~measure:seconds w ~input in
    Fmt.pr "%s/%s: %.0f tps@.%a@." name input_name s.Measure.tps Ocolos_uarch.Counters.pp
      s.Measure.counters
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Steady-state throughput of the original binary")
    Term.(
      const run $ workload_arg $ input_arg $ seconds_arg $ trace_arg $ metrics_arg
      $ events_arg)

let bolt_cmd =
  let run name input_name seconds trace metrics events =
    with_obs trace metrics events @@ fun () ->
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let orig = Measure.steady ~measure:seconds w ~input in
    let profile = Measure.collect_profile w ~input in
    let r = Measure.bolt_binary w profile in
    let bolted = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary r in
    let opt = Measure.steady ~binary:bolted ~measure:seconds w ~input in
    Fmt.pr "original: %.0f tps@." orig.Measure.tps;
    Fmt.pr "BOLTed:   %.0f tps (%.2fx), %d functions optimized, %d skipped@." opt.Measure.tps
      (opt.Measure.tps /. orig.Measure.tps)
      r.Ocolos_bolt.Bolt.funcs_reordered r.Ocolos_bolt.Bolt.skipped
  in
  Cmd.v
    (Cmd.info "bolt" ~doc:"Offline BOLT: profile, optimize, compare")
    Term.(
      const run $ workload_arg $ input_arg $ seconds_arg $ trace_arg $ metrics_arg
      $ events_arg)

let fault_arg =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"POINT[:SPEC]"
        ~doc:
          "Arm a fault at a named injection point (repeatable; see $(b,faults)). SPEC is \
           $(i,N) (fire on the Nth hit; default 1), $(b,every:)$(i,K), or $(b,p:)$(i,P).")

let fault_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for probabilistic fault schedules; reruns reproduce exactly.")

(* Parse and arm --fault specs into one registry; None when nothing armed. *)
let parse_faults ~seed specs =
  match specs with
  | [] -> None
  | specs ->
    let f = Ocolos_util.Fault.create ~seed () in
    List.iter
      (fun spec ->
        match Ocolos_util.Fault.parse_arm f spec with
        | Ok point when not (List.mem point Ocolos_core.Ocolos.fault_catalog) ->
          Fmt.failwith "bad --fault %S: unknown point %S (see `ocolos_cli faults`)" spec
            point
        | Ok _ -> ()
        | Error msg -> Fmt.failwith "bad --fault %S: %s" spec msg)
      specs;
    Some f

let ocolos_cmd =
  let run name input_name seconds fault_specs fault_seed trace metrics events =
    with_obs trace metrics events @@ fun () ->
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let fault = parse_faults ~seed:fault_seed fault_specs in
    let config = { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault } in
    let orig = Measure.steady ~measure:seconds w ~input in
    (match Measure.ocolos_steady ~config ~measure:seconds w ~input with
    | r ->
      let s = r.Measure.stats in
      Fmt.pr "original: %.0f tps@." orig.Measure.tps;
      Fmt.pr "OCOLOS:   %.0f tps (%.2fx)@." r.Measure.post.Measure.tps
        (r.Measure.post.Measure.tps /. orig.Measure.tps);
      Fmt.pr
        "replacement: %d funcs optimized, %d v-table entries + %d call sites patched, %d on stack, pause %.3f s@."
        s.Ocolos_core.Ocolos.funcs_optimized s.Ocolos_core.Ocolos.vtable_entries_patched
        s.Ocolos_core.Ocolos.call_sites_patched s.Ocolos_core.Ocolos.stack_live_funcs
        s.Ocolos_core.Ocolos.pause_seconds;
      Fmt.pr "background: perf2bolt %.2f s, llvm-bolt %.2f s@." r.Measure.perf2bolt_seconds
        r.Measure.bolt_seconds;
      if r.Measure.attempts > 1 then
        Fmt.pr "transactions: %d attempts, %d rolled back, committed on attempt %d@."
          r.Measure.attempts r.Measure.rollbacks r.Measure.attempts;
      if r.Measure.quarantined <> [] || r.Measure.breaker <> Ocolos_core.Guard.Closed then
        Fmt.pr "guard: breaker %s, quarantined fids [%s]@."
          (Ocolos_core.Guard.breaker_state_to_string r.Measure.breaker)
          (String.concat "; " (List.map string_of_int r.Measure.quarantined))
    | exception Measure.Replacement_failed msg ->
      Fmt.pr "original: %.0f tps@." orig.Measure.tps;
      Fmt.pr "OCOLOS:   replacement failed — %s@." msg;
      Fmt.pr "process continues on the original layout@.");
    match fault with
    | None -> ()
    | Some f ->
      Fmt.pr "fault points (seed %d):@." fault_seed;
      List.iter
        (fun p ->
          Fmt.pr "  %-14s %d hits, %d fired@." p (Ocolos_util.Fault.hits f p)
            (Ocolos_util.Fault.fired f p))
        (Ocolos_util.Fault.points f)
  in
  Cmd.v
    (Cmd.info "ocolos" ~doc:"Online OCOLOS: attach, profile, replace, compare")
    Term.(
      const run $ workload_arg $ input_arg $ seconds_arg $ fault_arg $ fault_seed_arg
      $ trace_arg $ metrics_arg $ events_arg)

let faults_cmd =
  let domain_blurb = function
    | "perf" -> "LBR sampling; injected faults degrade the profile, sampling continues"
    | "perf2bolt" -> "profile aggregation; a fault aborts the campaign (layout kept)"
    | "bolt" ->
      "optimizer passes; cfg/bb_reorder/peephole failures skip that function, \
       func_reorder aborts the campaign"
    | "proc" -> "process control (pause timeout); rolls the transaction back"
    | "mem" -> "address-space exhaustion at injection; rolls the transaction back"
    | "txn" -> "stop-the-world replacement; a fault rolls back, the daemon retries"
    | "bolt.miscompile" ->
      "silent output corruption past the BOLT passes; the Tier-1 validator rejects \
       it pre-commit (quarantine + abort), the Tier-2 shadow reverts what slips \
       through (see `ocolos_cli validate`)"
    | _ -> ""
  in
  let run () =
    Fmt.pr "fault domains and injection points (domains in order of first reachability):@.";
    let catalog = Ocolos_core.Ocolos.fault_catalog in
    let domains =
      List.fold_left
        (fun acc p ->
          let d = Ocolos_util.Fault.domain_of p in
          if List.mem d acc then acc else acc @ [ d ])
        [] catalog
    in
    List.iter
      (fun d ->
        Fmt.pr "@.%s — %s@." d (domain_blurb d);
        List.iter
          (fun p -> if Ocolos_util.Fault.domain_of p = d then Fmt.pr "  %s@." p)
          catalog)
      domains;
    Fmt.pr
      "@.arm with: ocolos_cli ocolos -w W -i I --fault POINT[:N|:every:K|:p:P] \
       [--fault-seed S]@.";
    Fmt.pr
      "kill/restart the daemon at any point with: ocolos_cli chaos [--points P,..] [--seeds \
       S,..]@."
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"List pipeline fault domains and injection points")
    Term.(const run $ const ())

(* Standalone Tier-1 translation validation: attach to the live process,
   profile, run BOLT, and gate the result through the validator without
   committing anything. --corrupt applies a bolt.miscompile corruption to
   the BOLT output first, to demonstrate (and CI-check) the gate; the
   per-pass verdicts name the BOLT pass whose invariant broke. Exit status
   is the verdict, so this doubles as a smoke check. *)
let validate_cmd =
  let corrupt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corrupt" ] ~docv:"POINT[:SALT]"
          ~doc:
            "Apply a $(b,bolt.miscompile) corruption to the BOLT output before \
             validating (see $(b,faults) for the catalog). $(i,SALT) picks the \
             corruption site (default 1).")
  in
  let expect_reject_arg =
    Arg.(
      value & flag
      & info [ "expect-reject" ]
          ~doc:
            "Invert the exit status: succeed only when the validator rejects. For \
             CI smokes over the corruption catalog.")
  in
  let run name input_name corrupt expect_reject trace metrics events =
    let rejected = ref false in
    (with_obs trace metrics events @@ fun () ->
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let proc = Workload.launch w ~input in
    let oc = Ocolos_core.Ocolos.attach proc in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
    Ocolos_core.Ocolos.start_profiling oc;
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:120_000 proc;
    let profile, _ = Ocolos_core.Ocolos.stop_profiling oc in
    let result, _ = Ocolos_core.Ocolos.run_bolt oc profile in
    Fmt.pr "BOLT: %d functions reordered, %d skipped@."
      result.Ocolos_bolt.Bolt.funcs_reordered result.Ocolos_bolt.Bolt.skipped;
    let result =
      match corrupt with
      | None -> result
      | Some spec ->
        let point, salt =
          match String.index_opt spec ':' with
          | None -> (spec, 1)
          | Some i -> (
            let p = String.sub spec 0 i in
            let s = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt s with
            | Some salt -> (p, salt)
            | None -> Fmt.failwith "bad --corrupt %S: SALT must be an integer" spec)
        in
        if not (List.mem point Ocolos_bolt.Miscompile.points) then
          Fmt.failwith "bad --corrupt %S: unknown point %S (see `ocolos_cli faults`)" spec
            point;
        let corrupted, mutations = Ocolos_bolt.Miscompile.apply ~point ~salt result in
        Fmt.pr "corrupted: %s salt %d (%d mutations)@." point salt mutations;
        corrupted
    in
    let report = Ocolos_core.Ocolos.validate_result oc result in
    Fmt.pr "validated: %d functions, %d blocks, %d instructions@."
      report.Ocolos_bolt.Validate.rp_funcs report.Ocolos_bolt.Validate.rp_blocks
      report.Ocolos_bolt.Validate.rp_instrs;
    List.iter
      (fun check ->
        let n = Ocolos_bolt.Validate.check_rejections report check in
        Fmt.pr "  %-12s %s@." check
          (if n = 0 then "ok" else Fmt.str "REJECT (%d)" n))
      Ocolos_bolt.Validate.checks;
    if Ocolos_bolt.Validate.ok report then Fmt.pr "verdict: ACCEPT@."
    else begin
      rejected := true;
      List.iter
        (fun rj -> Fmt.pr "  %a@." Ocolos_bolt.Validate.pp_rejection rj)
        report.Ocolos_bolt.Validate.rp_rejections;
      Fmt.pr "verdict: REJECT (fids [%s] would be quarantined)@."
        (String.concat "; "
           (List.map string_of_int (Ocolos_bolt.Validate.rejected_fids report)))
    end);
    if !rejected <> expect_reject then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Tier-1 translation validation of a BOLT result, without committing; \
          $(b,--corrupt) demonstrates the miscompile gate")
    Term.(
      const run $ workload_arg $ input_arg $ corrupt_arg $ expect_reject_arg $ trace_arg
      $ metrics_arg $ events_arg)

(* Kill/restart crash-recovery sweep: for each (seed, point), kill the
   daemon at that point, check the orphaned target's trace against an
   uninterrupted reference, and check a restarted daemon converges. *)
let chaos_cmd =
  let seeds_arg =
    Arg.(
      value
      & opt (list int) Ocolos_sim.Chaos.default_seeds
      & info [ "seeds" ] ~docv:"S,.." ~doc:"Fault seeds to sweep.")
  in
  let points_arg =
    Arg.(
      value & opt (list string) []
      & info [ "points" ] ~docv:"P,.."
          ~doc:"Fault points to kill at (default: the whole catalog, see $(b,faults)).")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "On failure, re-run each failing scenario with tracing on and write its \
             Chrome/Perfetto trace-event JSON to \
             $(docv)/chaos-seed$(i,S)-$(i,DOMAIN)-$(i,POINT).json.")
  in
  let run seeds points trace_dir trace metrics events =
    let failed = ref false in
    (with_obs trace metrics events @@ fun () ->
    let points = if points = [] then Ocolos_sim.Chaos.default_points else points in
    List.iter
      (fun p ->
        if not (List.mem p Ocolos_core.Ocolos.fault_catalog) then
          Fmt.failwith "unknown fault point %S (see `ocolos_cli faults`)" p)
      points;
    let failures = ref [] in
    let unreached = ref 0 in
    List.iter
      (fun seed ->
        let cache = Ocolos_sim.Chaos.new_cache () in
        List.iter
          (fun point ->
            let r = Ocolos_sim.Chaos.scenario ~cache ~seed ~point () in
            (match Ocolos_sim.Chaos.verdict r with
            | `Pass -> ()
            | `Unreached -> incr unreached
            | `Fail -> failures := (seed, point) :: !failures);
            Fmt.pr "%s@." (Ocolos_sim.Chaos.result_to_string r))
          points)
      seeds;
    let total = List.length seeds * List.length points in
    Fmt.pr "@.%d scenarios: %d passed, %d failed, %d unreached@." total
      (total - List.length !failures - !unreached)
      (List.length !failures) !unreached;
    (match (trace_dir, !failures) with
    | Some dir, (_ :: _ as fails) ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      List.iter
        (fun (seed, point) ->
          (* Deterministic: the re-run fails identically, now traced. *)
          let tr = Obs.Trace.create () in
          Obs.Trace.with_installed tr (fun () ->
              ignore (Ocolos_sim.Chaos.scenario ~seed ~point ()));
          let label =
            Ocolos_sim.Chaos.scenario_label
              { Ocolos_sim.Chaos.r_seed = seed;
                r_point = point;
                r_outcome = Ocolos_sim.Chaos.Not_reached }
          in
          let path = Filename.concat dir (Fmt.str "chaos-%s.json" label) in
          Obs.Chrome.save path tr;
          Fmt.pr "wrote failing-scenario trace to %s@." path)
        (List.rev fails)
    | _ -> ());
    failed := !failures <> []);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Kill the daemon at every fault point; verify trace equality and restart \
             convergence")
    Term.(
      const run $ seeds_arg $ points_arg $ trace_dir_arg $ trace_arg $ metrics_arg
      $ events_arg)

(* True-OSR smoke: drive the never-returning event-loop workload through a
   full continuous campaign and require total convergence — no byte of the
   original text (bolt.org.text) still resident, no residue outstanding,
   and a clean global reachability audit. The CI gate for on-stack
   replacement. *)
let osr_smoke_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 10
      & info [ "max-rounds" ] ~docv:"N"
          ~doc:"Replacement-round budget for retiring the original text.")
  in
  let run max_rounds trace metrics events =
    let failed = ref false in
    (with_obs trace metrics events @@ fun () ->
    let w = Apps.event_loop () in
    let input = Workload.find_input w "steady" in
    let proc = Workload.launch w ~input in
    let config =
      { Ocolos_core.Ocolos.default_config with
        Ocolos_core.Ocolos.bolt =
          { Ocolos_core.Ocolos.default_config.Ocolos_core.Ocolos.bolt with
            Ocolos_bolt.Bolt.hot_threshold = 1;
            max_hot_funcs = None;
            lite = false } }
    in
    let oc = Ocolos_core.Ocolos.attach ~config proc in
    let c0_total = Ocolos_core.Ocolos.c0_text_resident_bytes oc in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
    let rounds = ref 0 in
    while
      (not !failed) && Ocolos_core.Ocolos.c0_text_resident_bytes oc > 0 && !rounds < max_rounds
    do
      incr rounds;
      Ocolos_core.Ocolos.start_profiling oc;
      Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:300_000 proc;
      let profile, _ = Ocolos_core.Ocolos.stop_profiling oc in
      match Ocolos_core.Step.optimize oc profile with
      | Ok stats ->
        Fmt.pr "round %d: C%d live, %d frames migrated, %d stubs, %d bytes freed, %d/%d \
                original bytes resident@."
          !rounds stats.Ocolos_core.Ocolos.version stats.Ocolos_core.Ocolos.frames_migrated
          stats.Ocolos_core.Ocolos.osr_stubs stats.Ocolos_core.Ocolos.gc_bytes_freed
          (Ocolos_core.Ocolos.c0_text_resident_bytes oc)
          c0_total
      | Error reason ->
        Fmt.pr "FAIL: round %d committed nothing: %s@." !rounds reason;
        failed := true
    done;
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
    ignore (Ocolos_core.Ocolos.gc_residue oc);
    let c0_left = Ocolos_core.Ocolos.c0_text_resident_bytes oc in
    let extra = Ocolos_core.Ocolos.resident_extra_bytes oc in
    if c0_left > 0 then begin
      Fmt.pr "FAIL: %d bytes of bolt.org.text still resident after %d rounds@." c0_left
        !rounds;
      failed := true
    end;
    if extra > 0 then begin
      Fmt.pr "FAIL: %d bytes of OSR residue survived convergence@." extra;
      failed := true
    end;
    (match Ocolos_core.Ocolos.verify_no_dangling oc ~freed:[] with
    | () -> ()
    | exception Ocolos_core.Ocolos.Dangling_pointer what ->
      Fmt.pr "FAIL: reachability scanner found a dangling pointer: %s@." what;
      failed := true);
    let tx = Ocolos_proc.Proc.transactions proc in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
    if Ocolos_proc.Proc.transactions proc <= tx then begin
      Fmt.pr "FAIL: event loop stopped serving transactions@.";
      failed := true
    end;
    if not !failed then
      Fmt.pr "PASS: original text fully retired in %d rounds (C%d live, %d tx served)@."
        !rounds
        (Ocolos_core.Ocolos.version oc)
        (Ocolos_proc.Proc.transactions proc));
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "osr-smoke"
       ~doc:"Replace a never-returning event loop end to end; fail unless the original \
             text is fully unmapped and the reachability audit is clean")
    Term.(const run $ rounds_arg $ trace_arg $ metrics_arg $ events_arg)

(* Fleet rollout demo: N replicas of the endless tiny workload under
   open-loop traffic, one canary campaign driven to its terminal outcome.
   The exit status makes this a CI smoke: the requested path (promotion,
   or rollback under --inject-regression) must actually have happened and
   the fleet must end homogeneous. *)
(* ---- fleet / explain shared plumbing ---- *)

let replicas_arg =
  Arg.(value & opt int 4 & info [ "replicas" ] ~docv:"N" ~doc:"Fleet size.")

let canary_arg =
  Arg.(
    value & opt int 25
    & info [ "canary" ] ~docv:"PCT" ~doc:"Canary stage size, as a percent of the fleet.")

let inject_arg =
  Arg.(
    value & flag
    & info [ "inject-regression" ]
        ~doc:
          "Scale the measured canary IPC by 0.5 at the verdict: the canary check \
           fails and the staged rollback path runs instead of the promotion.")

let fleet_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Base seed (replica i adds i).")

let ticks_arg =
  Arg.(
    value & opt int 30
    & info [ "ticks" ] ~docv:"T" ~doc:"Simulated seconds to drive the fleet.")

let rate_arg =
  Arg.(
    value & opt float 40.0
    & info [ "rate" ] ~docv:"R"
        ~doc:"Open-loop arrival rate per replica (requests per simulated second).")

let inputs_arg =
  Arg.(
    value
    & opt (list string) [ "a" ]
    & info [ "inputs" ] ~docv:"I,.."
        ~doc:
          "Workload inputs dealt round-robin across replicas (tiny workload: a, b). \
           A mixed list exercises cross-replica profile aggregation over a \
           heterogeneous fleet.")

let fleet_config ~canary ~inject =
  let module Fleet = Ocolos_core.Fleet in
  { Fleet.default_config with
    Fleet.canary_fraction = float_of_int canary /. 100.0;
    canary_ipc_scale = (if inject then 0.5 else 1.0);
    daemon =
      { Ocolos_core.Daemon.default_config with
        Ocolos_core.Daemon.profile_s = 1.0;
        warmup_s = 0.5;
        min_interval_s = 2.0 } }

let fleet_cmd =
  let module Fleet_driver = Ocolos_sim.Fleet_driver in
  let run replicas canary inject seed ticks rate inputs trace metrics events =
    with_obs trace metrics events @@ fun () ->
    let config = fleet_config ~canary ~inject in
    Fmt.pr "fleet: %d replicas, canary %d%%, rate %g req/s, %d ticks, seed %d%s@.@."
      replicas canary rate ticks seed
      (if inject then " — injecting an IPC regression at the canary verdict" else "");
    let report, _fleet =
      Fleet_driver.run ~replicas ~seed ~ticks ~arrival_rate:rate ~inputs ~config ()
    in
    Fmt.pr "%s" (Fleet_driver.report_to_string report);
    let ok =
      report.Fleet_driver.fd_converged
      &&
      if inject then report.Fleet_driver.fd_rollbacks > 0
      else report.Fleet_driver.fd_rollouts > 0
    in
    Fmt.pr "@.%s@."
      (if not ok then "FLEET ROLLOUT CHECK FAILED"
       else if inject then
         "rollback path verified: canary regression caught, every replica back on the \
          old version"
       else "rollout verified: canary promoted, every replica on the new version");
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Canary rollout across an N-replica fleet under open-loop traffic; \
          $(b,--inject-regression) demonstrates the guard-driven staged rollback")
    Term.(
      const run $ replicas_arg $ canary_arg $ inject_arg $ fleet_seed_arg $ ticks_arg
      $ rate_arg $ inputs_arg $ trace_arg $ metrics_arg $ events_arg)

(* Post-mortem for a rollout: run the fleet with layout-health attribution
   armed, then explain the canary verdict — which signal breached, which
   functions regressed between C_i and C_{i+1}, which fault domains fired,
   and the rollback event from the structured log. *)
let explain_cmd =
  let module Fleet = Ocolos_core.Fleet in
  let module Fleet_driver = Ocolos_sim.Fleet_driver in
  let module LH = Obs.Layout_health in
  let run replicas canary inject seed ticks rate inputs fault_specs fault_seed trace
      metrics events =
    observed trace metrics events @@ fun _ ev ->
    let lh = LH.create () in
    let config = fleet_config ~canary ~inject in
    let ocolos_config =
      { Ocolos_core.Ocolos.default_config with
        Ocolos_core.Ocolos.fault = parse_faults ~seed:fault_seed fault_specs }
    in
    Fmt.pr "explain: %d replicas, canary %d%%, rate %g req/s, %d ticks, seed %d%s@.@."
      replicas canary rate ticks seed
      (if inject then " — injecting an IPC regression at the canary verdict" else "");
    let report, fleet =
      Fleet_driver.run ~replicas ~seed ~ticks ~arrival_rate:rate ~inputs ~config
        ~ocolos_config ~health:lh ()
    in
    LH.export_metrics lh;
    Fmt.pr "%s@." (Fleet_driver.report_to_string report);
    Fmt.pr "layout health, per code version:@.%s@." (LH.report lh);
    let pp_cohort label ids (c : Fleet.cohort) =
      Fmt.pr
        "%s cohort (replicas [%s]): IPC %.2f (baseline %.2f, ratio %.2f), p99 %.3fs, \
         L1i %.2f MPKI, iTLB %.2f MPKI, BTB %.2f MPKI, taken %.1f/Ki@."
        label
        (String.concat ";" (List.map string_of_int ids))
        c.Fleet.co_ipc c.Fleet.co_base_ipc c.Fleet.co_ipc_ratio c.Fleet.co_p99
        c.Fleet.co_l1i_mpki c.Fleet.co_itlb_mpki c.Fleet.co_btb_mpki c.Fleet.co_taken_pki
    in
    (match Fleet.last_readout fleet with
    | None -> Fmt.pr "no canary verdict was reached within the tick budget.@."
    | Some ro ->
      pp_cohort "canary" ro.Fleet.ro_canary.Fleet.co_ids ro.Fleet.ro_canary;
      (match ro.Fleet.ro_rest with
      | Some r -> pp_cohort "rest  " r.Fleet.co_ids r
      | None -> Fmt.pr "rest cohort: none (every replica was a canary)@.");
      match ro.Fleet.ro_breach with
      | None -> Fmt.pr "verdict: clean — C%d promoted fleet-wide@." ro.Fleet.ro_version
      | Some (signal, detail) ->
        Fmt.pr "verdict: breached signal %S — %s@." signal detail;
        let from_version = ro.Fleet.ro_version - 1 and to_version = ro.Fleet.ro_version in
        Fmt.pr "@.signal deltas C%d -> C%d:@.%s" from_version to_version
          (LH.delta_table lh ~from_version ~to_version);
        let regs = LH.regressions lh ~from_version ~to_version in
        if regs <> [] then begin
          Fmt.pr "@.top regressed functions (contribution per Ki-instr, C%d -> C%d):@."
            from_version to_version;
          List.iteri
            (fun i (fd : LH.func_delta) ->
              if i < 5 then
                Fmt.pr "  %-24s l1i %+.3f  itlb %+.3f  btb %+.3f  taken %+.3f  total %+.3f@."
                  fd.LH.fd_name fd.LH.fd_l1i fd.LH.fd_itlb fd.LH.fd_btb fd.LH.fd_taken
                  fd.LH.fd_total)
            regs
        end);
    let evs = Obs.Events.events ev in
    let fired =
      List.filter
        (fun (e : Obs.Events.event) ->
          e.Obs.Events.e_type = "fault.fired" || e.Obs.Events.e_type = "fault.killed")
        evs
    in
    if fired <> [] then begin
      Fmt.pr "@.fault injections:@.";
      List.iter
        (fun (e : Obs.Events.event) ->
          match List.assoc_opt "point" e.Obs.Events.e_fields with
          | Some (Obs.Trace.S p) ->
            Fmt.pr "  t=%dus %s at %s (fault domain: %s)@." e.Obs.Events.e_ts_us
              e.Obs.Events.e_type p
              (Ocolos_util.Fault.domain_of p)
          | _ -> ())
        fired
    end;
    match
      List.rev
        (List.filter
           (fun (e : Obs.Events.event) ->
             e.Obs.Events.e_type = "fleet.rolled_back"
             || e.Obs.Events.e_type = "txn.rollback")
           evs)
    with
    | last :: _ -> Fmt.pr "@.rollback event (JSONL):@.  %s@." (Obs.Events.event_to_string last)
    | [] -> ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a fleet rollout with layout-health attribution armed, then explain the \
          canary verdict: breached signal, per-version signal deltas, regressed \
          functions, fired fault domains, and the rollback event")
    Term.(
      const run $ replicas_arg $ canary_arg $ inject_arg $ fleet_seed_arg $ ticks_arg
      $ rate_arg $ inputs_arg $ fault_arg $ fault_seed_arg $ trace_arg $ metrics_arg
      $ events_arg)

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output image path (.oclb).")

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Binary image (.oclb) to load.")

(* Save a BOLT-optimized image for later runs: the offline deployment
   flow. *)
let save_cmd =
  let run name input_name out =
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let profile = Measure.collect_profile w ~input in
    let r = Measure.bolt_binary w profile in
    let bolted = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary r in
    Ocolos_binary.Serialize.save out bolted;
    Fmt.pr "wrote %s (%d functions optimized, entry 0x%x)@." out
      r.Ocolos_bolt.Bolt.funcs_reordered bolted.Ocolos_binary.Binary.entry
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Profile, BOLT, and save the optimized image to a file")
    Term.(const run $ workload_arg $ input_arg $ out_arg)

let load_cmd =
  let run path =
    let b = Ocolos_binary.Serialize.load path in
    Fmt.pr "%a@." Ocolos_binary.Binary.pp_summary b;
    List.iter
      (fun (s : Ocolos_binary.Binary.section) ->
        Fmt.pr "  %-14s base 0x%x size %d@." s.Ocolos_binary.Binary.sec_name
          s.Ocolos_binary.Binary.sec_base s.Ocolos_binary.Binary.sec_size)
      b.Ocolos_binary.Binary.sections
  in
  Cmd.v (Cmd.info "load" ~doc:"Inspect a saved binary image") Term.(const run $ file_arg)

(* objdump analog. *)
let disasm_cmd =
  let func_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "function" ] ~docv:"NAME" ~doc:"Only this function.")
  in
  let run name func =
    let w = load_workload name in
    let b = w.Workload.binary in
    match func with
    | None -> Fmt.pr "%a@." Ocolos_binary.Disasm.pp b
    | Some fname -> (
      match Ocolos_binary.Binary.find_symbol_by_name b fname with
      | Some s -> Fmt.pr "%a@." (fun fmt () ->
            Ocolos_binary.Disasm.pp_function fmt b s.Ocolos_binary.Binary.fs_fid) ()
      | None -> Fmt.failwith "no function %S" fname)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload's binary (objdump analog)")
    Term.(const run $ workload_arg $ func_arg)

(* perf report analog: top L1i-missing functions. *)
let report_cmd =
  let run name input_name seconds =
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let proc = Workload.launch w ~input in
    Ocolos_proc.Proc.run ~cycle_limit:(Ocolos_sim.Clock.seconds_to_cycles 0.3) proc;
    let session = Ocolos_profiler.Perf_report.start proc in
    Ocolos_proc.Proc.run ~cycle_limit:(Ocolos_sim.Clock.seconds_to_cycles (0.3 +. seconds)) proc;
    let report = Ocolos_profiler.Perf_report.stop session in
    Fmt.pr "%a" (Ocolos_profiler.Perf_report.pp_top ~limit:15) (report, w.Workload.binary)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"perf-report analog: functions by L1i-miss share")
    Term.(const run $ workload_arg $ input_arg $ seconds_arg)

let timeline_cmd =
  let run name input_name trace metrics events =
    with_obs trace metrics events @@ fun () ->
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let t = Timeline.run ~warmup_s:5 ~profile_s:3 ~post_s:8 w ~input in
    List.iter
      (fun (p : Timeline.point) ->
        Fmt.pr "%3d  %-15s %8.0f tps  p95 %.2f ms@." p.Timeline.second
          (Timeline.region_name p.Timeline.region)
          p.Timeline.tps p.Timeline.p95_ms)
      t.Timeline.points
  in
  Cmd.v
    (Cmd.info "timeline" ~doc:"Fig.7-style replacement timeline")
    Term.(const run $ workload_arg $ input_arg $ trace_arg $ metrics_arg $ events_arg)

let topdown_cmd =
  let run name input_name seconds =
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let proc = Workload.launch w ~input in
    Ocolos_proc.Proc.run ~cycle_limit:(Ocolos_sim.Clock.seconds_to_cycles 0.3) proc;
    let before = Ocolos_proc.Proc.total_counters proc in
    Ocolos_proc.Proc.run ~cycle_limit:(Ocolos_sim.Clock.seconds_to_cycles (0.3 +. seconds)) proc;
    let after = Ocolos_proc.Proc.total_counters proc in
    let v = Ocolos_profiler.Topdown_check.analyze ~before ~after () in
    let td = v.Ocolos_profiler.Topdown_check.topdown in
    Fmt.pr "retiring %.0f%%  front-end %.0f%%  bad-speculation %.0f%%  back-end %.0f%%@."
      (100.0 *. td.Ocolos_uarch.Counters.retiring)
      (100.0 *. td.Ocolos_uarch.Counters.frontend)
      (100.0 *. td.Ocolos_uarch.Counters.bad_speculation)
      (100.0 *. td.Ocolos_uarch.Counters.backend);
    Fmt.pr "front-end bound: %b — %s@." v.Ocolos_profiler.Topdown_check.frontend_bound
      (if v.Ocolos_profiler.Topdown_check.frontend_bound then
         "OCOLOS is likely to help (proceed to LBR profiling)"
       else "OCOLOS is unlikely to help")
  in
  Cmd.v
    (Cmd.info "topdown" ~doc:"Stage-1 TopDown bottleneck analysis (DMon-style)")
    Term.(const run $ workload_arg $ input_arg $ seconds_arg)

(* Full pipeline run with observability on, reported as attribution
   tables: where the pipeline's wall-clock went, and what the replacement
   did to the TopDown cycle breakdown and front-end miss rates. *)
let stats_cmd =
  let run name input_name seconds trace metrics events =
    observed trace metrics events @@ fun tr _ ->
    let w = load_workload name in
    let input = Workload.find_input w input_name in
    let profile_s = 2.0 in
    let orig = Measure.steady ~measure:seconds w ~input in
    let r = Measure.ocolos_steady ~profile_s ~measure:seconds w ~input in
    let s = r.Measure.stats in
    let post = r.Measure.post in
    Table.section (Fmt.str "pipeline attribution — %s/%s" name input_name);
    let pause = s.Ocolos_core.Ocolos.pause_seconds in
    let phases =
      [ ("LBR profiling", profile_s, "target runs at full speed");
        ("perf2bolt", r.Measure.perf2bolt_seconds, "background, contends with target");
        ("llvm-bolt", r.Measure.bolt_seconds, "background, contends with target");
        ("stop-the-world replace", pause, "target fully paused") ]
    in
    let total = List.fold_left (fun acc (_, sec, _) -> acc +. sec) 0.0 phases in
    Table.print
      ~headers:[| "phase"; "seconds"; "share"; "notes" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Left |]
      (List.map
         (fun (ph, sec, note) ->
           [| ph; Table.fmt_f ~digits:3 sec; Table.fmt_pct (sec /. total); note |])
         phases);
    if r.Measure.attempts > 1 then
      Fmt.pr "replacement committed on attempt %d (%d rolled back)@." r.Measure.attempts
        r.Measure.rollbacks;
    Fmt.pr "supervision: breaker %s, %d quarantined@."
      (Ocolos_core.Guard.breaker_state_to_string r.Measure.breaker)
      (List.length r.Measure.quarantined);
    Table.section "TopDown attribution (share of cycles)";
    let td_o = orig.Measure.topdown and td_p = post.Measure.topdown in
    let row label o p = [| label; Table.fmt_pct o; Table.fmt_pct p; Table.fmt_pct (p -. o) |] in
    Table.print
      ~headers:[| "category"; "original"; "ocolos"; "delta" |]
      [ row "retiring" td_o.Ocolos_uarch.Counters.retiring td_p.Ocolos_uarch.Counters.retiring;
        row "front-end bound" td_o.Ocolos_uarch.Counters.frontend
          td_p.Ocolos_uarch.Counters.frontend;
        row "bad speculation" td_o.Ocolos_uarch.Counters.bad_speculation
          td_p.Ocolos_uarch.Counters.bad_speculation;
        row "back-end bound" td_o.Ocolos_uarch.Counters.backend
          td_p.Ocolos_uarch.Counters.backend ];
    Table.section "front-end effects";
    let frow label f =
      let o = f orig.Measure.counters and p = f post.Measure.counters in
      [| label;
         Table.fmt_f ~digits:2 o;
         Table.fmt_f ~digits:2 p;
         (* a near-zero baseline makes the ratio meaningless *)
         (if o < 0.005 then "n/a" else Table.fmt_speedup (p /. o)) |]
    in
    Table.print
      ~headers:[| "metric"; "original"; "ocolos"; "ocolos/orig" |]
      (frow "IPC" Ocolos_uarch.Counters.ipc
      :: [ frow "L1i MPKI" Ocolos_uarch.Counters.l1i_mpki;
           frow "iTLB MPKI" Ocolos_uarch.Counters.itlb_mpki;
           frow "BTB misses/Ki" Ocolos_uarch.Counters.btb_misses_pki;
           frow "taken branches/Ki" Ocolos_uarch.Counters.taken_branches_pki ]);
    Fmt.pr "throughput: %.0f -> %.0f tps (%.2fx)@." orig.Measure.tps post.Measure.tps
      (post.Measure.tps /. orig.Measure.tps);
    Fmt.pr "trace: %d spans, %d point events (use --trace FILE to export)@."
      (Obs.Trace.span_count tr)
      (List.length (Obs.Trace.events tr))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the online pipeline and print phase + TopDown attribution tables")
    Term.(
      const run $ workload_arg $ input_arg $ seconds_arg $ trace_arg $ metrics_arg
      $ events_arg)

let () =
  let doc = "OCOLOS: online code layout optimization (simulated reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ocolos_cli" ~doc)
          [ list_cmd; inspect_cmd; run_cmd; bolt_cmd; ocolos_cmd; faults_cmd; validate_cmd;
            chaos_cmd; osr_smoke_cmd; fleet_cmd; explain_cmd; timeline_cmd; topdown_cmd;
            stats_cmd; save_cmd; load_cmd; report_cmd; disasm_cmd ]))
