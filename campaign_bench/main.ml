(* Campaign benchmark: whole OCOLOS campaigns on four app analogs, timed on
   the host clock and scored on the simulated one.

     python3 campaign_bench/run.py --workload W --seed S --seconds T --trace 0|1

   Each run repeats one workload's campaign, from a fresh build and launch,
   until [--seconds] of host time is spent, and reports the median over
   those reps. A campaign goes through the public calls the daemon makes, in
   the daemon's order; the fleet workload drives Fleet.tick the way the
   fleet driver does. Every rep checks its outcome, and the last line of
   standard output is one JSON object with the verdict and the metrics:
   end-to-end metrics untraced, per-layer metrics with [--trace 1]. See
   README.md for the metric definitions. *)

open Ocolos_workloads
module Proc = Ocolos_proc.Proc
module Counters = Ocolos_uarch.Counters
module Ocolos = Ocolos_core.Ocolos
module Txn = Ocolos_core.Txn
module Shadow = Ocolos_core.Shadow
module Fleet = Ocolos_core.Fleet
module Daemon = Ocolos_core.Daemon
module Bolt = Ocolos_bolt.Bolt
module Validate = Ocolos_bolt.Validate
module Profile = Ocolos_profiler.Profile
module Clock = Ocolos_sim.Clock

let now = Unix.gettimeofday

(* ---- one rep ---- *)

type rep = {
  setup_s : float;  (** build + launch + attach *)
  optimize_s : float;  (** profile-window end to commit, summed over campaigns *)
  campaign_s : float;  (** end of setup to end of the last campaign *)
  instrs : int;  (** simulated instructions retired, all threads and replicas *)
  speedup : float;
  pause_s : float;
  l1i_mpki : float;
  outcomes : string option list;  (** per campaign: [None] met, [Some why] missed *)
}

let launch w ~input ~seed =
  Spans.run "workloads.launch" (fun () -> Workload.launch ~seed w ~input)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let tps (k : Counters.t) seconds = float_of_int k.Counters.transactions /. seconds

(* A single process under OCOLOS, advanced on the simulated clock. *)
type live = {
  proc : Proc.t;
  oc : Ocolos.t;
  mutable horizon : float;  (** simulated seconds *)
}

let run_to ?(layer = "proc.run") proc ~until_s =
  let before = proc.Proc.instret in
  Spans.run layer
    ~counts:(fun () -> [ ("minstr", float_of_int (proc.Proc.instret - before) /. 1e6) ])
    (fun () -> Proc.run ~cycle_limit:(Clock.seconds_to_cycles until_s) proc)

(* Run [seconds] more simulated time and return the window's counters. *)
let window ?layer l seconds =
  let before = Proc.total_counters l.proc in
  l.horizon <- l.horizon +. seconds;
  run_to ?layer l.proc ~until_s:l.horizon;
  Counters.diff (Proc.total_counters l.proc) before

type round = {
  r_speedup : float;
  r_pause_s : float;
  r_optimize_s : float;
  r_post : Counters.t;
  r_outcome : string option;
}

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* One campaign: 1 s before, a 2 s profile window, the optimization
   pipeline, 2 s after. The pipeline is the daemon's sequence of public
   calls: stop_profiling, run_bolt, validate_result, Shadow.prepare, then
   Txn.replace_code with the shadow replay as its verify gate. The residue
   GC runs once the post window has drained the migrated frames. *)
let round l =
  let pre = window l 1.0 in
  Ocolos.start_profiling l.oc;
  ignore (window ~layer:"profiler.window" l 2.0);
  let t0 = now () in
  let profile, _ =
    Spans.run "profiler.perf2bolt"
      ~counts:(fun (p, _) -> [ ("records", float_of_int p.Profile.total_records) ])
      (fun () -> Ocolos.stop_profiling l.oc)
  in
  let result, _ =
    Spans.run "bolt.run"
      ~counts:(fun ((r : Bolt.result), _) ->
        let hot = List.length r.Bolt.hot_fids in
        [ ("work_kinstr", float_of_int r.Bolt.work_instrs /. 1e3);
          ("hot_funcs", float_of_int hot);
          ("reordered_frac", frac r.Bolt.funcs_reordered hot);
          ("skipped", float_of_int r.Bolt.skipped) ])
      (fun () -> Ocolos.run_bolt l.oc profile)
  in
  let report =
    Spans.run "bolt.validate"
      ~counts:(fun (rp : Validate.report) ->
        [ ("instrs", float_of_int rp.Validate.rp_instrs);
          ("rejections", float_of_int (List.length rp.Validate.rp_rejections)) ])
      (fun () -> Ocolos.validate_result l.oc result)
  in
  if not (Validate.ok report) then
    (* The daemon aborts the campaign here and keeps the current layout. *)
    { r_speedup = 1.0;
      r_pause_s = 0.0;
      r_optimize_s = now () -. t0;
      r_post = Counters.zero;
      r_outcome = Some (Fmt.str "validator rejected: %a" Validate.pp_report report) }
  else begin
    let pre_shadow = Spans.run "shadow.prepare" (fun () -> Shadow.prepare l.oc) in
    let verify () =
      Spans.run "shadow.check"
        ~counts:(fun v -> [ ("match_frac", if v = Ok () then 1.0 else 0.0) ])
        (fun () ->
          match Shadow.check (Shadow.arm pre_shadow l.oc result) with
          | Shadow.Match -> Ok ()
          | Shadow.Divergence why -> Error why)
    in
    let outcome =
      Spans.run "txn.replace"
        ~counts:(function
          | Txn.Committed s ->
            [ ( "sites",
                float_of_int (s.Ocolos.call_sites_patched + s.Ocolos.vtable_entries_patched) );
              ("kbytes_injected", float_of_int s.Ocolos.code_bytes_injected /. 1e3);
              ("frames_migrated", float_of_int s.Ocolos.frames_migrated);
              ("osr_stubs", float_of_int s.Ocolos.osr_stubs);
              ("copied_funcs", float_of_int s.Ocolos.copied_funcs);
              ("copy_frac", frac s.Ocolos.copied_funcs s.Ocolos.stack_live_funcs);
              ("rollbacks", 0.0) ]
          | Txn.Rolled_back _ | Txn.Diverged _ -> [ ("rollbacks", 1.0) ])
        (fun () -> Txn.replace_code ~verify l.oc result)
    in
    let optimize_s = now () -. t0 in
    let pause_s, why =
      match outcome with
      | Txn.Committed s -> (s.Ocolos.pause_seconds, None)
      | Txn.Rolled_back rb -> (0.0, Some ("rolled back at " ^ rb.Txn.rb_point))
      | Txn.Diverged dv -> (0.0, Some ("shadow divergence: " ^ dv.Txn.dv_reason))
    in
    (* The modeled stop-the-world pause is charged to the target as a stall,
       so the post window starts when the process resumes. *)
    Proc.stall_all l.proc ~cycles:(Clock.seconds_to_cycles pause_s) ~category:`Backend;
    l.horizon <- Float.max l.horizon (Clock.cycles_to_seconds (Proc.max_cycles l.proc));
    let post = window l 2.0 in
    ignore (Spans.run "ocolos.gc_residue" (fun () -> Ocolos.gc_residue l.oc));
    let why =
      match why with
      | Some _ -> why
      | None ->
        let extra = Ocolos.resident_extra_bytes l.oc in
        if extra <> 0 then Some (Fmt.str "resident_extra_bytes = %d after gc_residue" extra)
        else None
    in
    { r_speedup = tps post 2.0 /. tps pre 1.0;
      r_pause_s = pause_s;
      r_optimize_s = optimize_s;
      r_post = post;
      r_outcome = why }
  end

(* The whole-process audit after the last round: every code pointer the
   process or the engines hold must be mapped. *)
let audit oc =
  match Ocolos.verify_no_dangling oc ~freed:[] with
  | () -> None
  | exception Ocolos.Dangling_pointer why -> Some ("dangling pointer: " ^ why)

(* A failed rep-level check is charged to the rep's last campaign. *)
let charge_last why outcomes =
  match (why, List.rev outcomes) with
  | Some _, None :: earlier -> List.rev (why :: earlier)
  | _ -> outcomes

(* A workload sets up when applied to a seed, and returns the campaign to
   run on what it set up. Single-process workloads: [inputs] lists each
   campaign's input; the first also launches the process. *)
let single ~make ~inputs ~seed =
  let t0 = now () in
  let w = Spans.run "workloads.build" make in
  let first = Workload.find_input w (List.hd inputs) in
  let proc = launch w ~input:first ~seed in
  let oc = Spans.run "ocolos.attach" (fun () -> Ocolos.attach proc) in
  let setup_s = now () -. t0 in
  fun () ->
    let t1 = now () in
    let l = { proc; oc; horizon = 0.0 } in
    let rounds =
      List.mapi
        (fun i name ->
          if i > 0 then Workload.set_input w proc (Workload.find_input w name);
          round l)
        inputs
    in
    let t2 = now () in
    let last = List.hd (List.rev rounds) in
    { setup_s;
      optimize_s = List.fold_left (fun acc r -> acc +. r.r_optimize_s) 0.0 rounds;
      campaign_s = t2 -. t1;
      instrs = proc.Proc.instret;
      speedup = geomean (List.map (fun r -> r.r_speedup) rounds);
      pause_s = List.fold_left (fun acc r -> acc +. r.r_pause_s) 0.0 rounds;
      l1i_mpki = Counters.l1i_mpki last.r_post;
      outcomes = charge_last (audit oc) (List.map (fun r -> r.r_outcome) rounds) }

(* ---- fleet ---- *)

let fleet_replicas = 2
let fleet_ticks = 5
let fleet_rate = 400.0

(* The CLI's [fleet --inject-regression] configuration: the canary's
   measured IPC is halved at the verdict, so the staged rollback runs. *)
let fleet_config probe =
  { Fleet.default_config with
    Fleet.canary_fraction = 0.25;
    canary_ipc_scale = 0.5;
    latency_probe = Some probe;
    daemon =
      { Daemon.default_config with
        Daemon.profile_s = 1.0;
        warmup_s = 0.5;
        min_interval_s = 2.0 } }

let tick_layer = function
  | Fleet.Idle -> "fleet.tick.idle"
  | Fleet.Started_profiling _ -> "fleet.tick.profile"
  | Fleet.Canary_started _ -> "fleet.tick.canary"
  | Fleet.Rolled_back _ -> "fleet.tick.rollback"
  | Fleet.Promoted _ | Fleet.Campaign_aborted _ | Fleet.Breaker_open _ -> "fleet.tick.other"

let fleet_sum procs =
  Array.fold_left (fun acc p -> Counters.add acc (Proc.total_counters p)) Counters.zero procs

(* Two mysql replicas on read_only under open-loop traffic, driven tick by
   tick as the fleet driver does: charge each replica's pause debt, run it
   to the tick, feed its open-loop client, then tick the controller. *)
let fleet ~seed =
  let t0 = now () in
  let w = Spans.run "workloads.build" (fun () -> Apps.mysql_like ()) in
  let input = Workload.find_input w "read_only" in
  let procs = Array.init fleet_replicas (fun i -> launch w ~input ~seed:(seed + i)) in
  let ols =
    Array.init fleet_replicas (fun i ->
        Openloop.create
          ~arrivals:
            (Openloop.poisson ~rate:fleet_rate ~seed:((seed * 10_000) + i)
               ~until_s:(float_of_int fleet_ticks)))
  in
  let fleet =
    Spans.run "ocolos.attach" (fun () ->
        Fleet.create ~config:(fleet_config (fun i -> Openloop.p99 ols.(i))) procs)
  in
  let setup_s = now () -. t0 in
  fun () ->
    let t1 = now () in
    let pause_s = ref 0.0 and optimize_s = ref 0.0 and sampling = ref false in
    let actions = ref [] and windows = Array.make fleet_ticks Counters.zero in
    for i = 0 to fleet_ticks - 1 do
      let now_s = float_of_int (i + 1) in
      let before = fleet_sum procs in
      Array.iteri
        (fun id proc ->
          let debt = Fleet.take_pause_debt fleet id in
          pause_s := !pause_s +. debt;
          if debt > 0.0 then
            Proc.stall_all proc ~cycles:(Clock.seconds_to_cycles debt) ~category:`Backend;
          run_to
            ~layer:(if !sampling then "profiler.window" else "proc.run")
            proc ~until_s:now_s;
          Openloop.advance ols.(id) ~now_s
            ~completed:(Proc.total_counters proc).Counters.transactions)
        procs;
      windows.(i) <- Counters.diff (fleet_sum procs) before;
      let t = now () in
      let action =
        Spans.run "fleet.tick" ~name_of:tick_layer (fun () -> Fleet.tick fleet ~now_s)
      in
      (match action with
      | Fleet.Idle -> ()
      | a ->
        optimize_s := !optimize_s +. (now () -. t);
        actions := a :: !actions;
        sampling := (match a with Fleet.Started_profiling _ -> true | _ -> false))
    done;
    let t2 = now () in
    Array.iteri (fun id _ -> pause_s := !pause_s +. Fleet.take_pause_debt fleet id) procs;
    let expected =
      match List.rev !actions with
      | [ Fleet.Started_profiling _; Fleet.Canary_started _; Fleet.Rolled_back _ ] ->
        if Fleet.converged fleet && List.for_all (( = ) 0) (Fleet.versions fleet) then None
        else Some "fleet did not converge on C0 after the rollback"
      | acts ->
        Some
          (Fmt.str "expected profile, canary, rollback; got [%s]"
             (String.concat "; " (List.map Fleet.action_to_string acts)))
    in
    let audits =
      List.filter_map
        (fun id -> audit (Fleet.ocolos fleet id))
        (List.init fleet_replicas Fun.id)
    in
    let last = windows.(fleet_ticks - 1) in
    { setup_s;
      optimize_s = !optimize_s;
      campaign_s = t2 -. t1;
      instrs = Array.fold_left (fun acc p -> acc + p.Proc.instret) 0 procs;
      speedup = tps last 1.0 /. tps windows.(0) 1.0;
      pause_s = !pause_s;
      l1i_mpki = Counters.l1i_mpki last;
      outcomes = charge_last (List.nth_opt audits 0) [ expected ] }

(* ---- workloads ---- *)

let workloads =
  [ ( "mysql_reopt",
      single ~make:(fun () -> Apps.mysql_like ()) ~inputs:[ "read_only"; "write_only" ] );
    ( "memcached_steady",
      single ~make:(fun () -> Apps.memcached_like ()) ~inputs:[ "set10_get90" ] );
    ( "verilator_kernel",
      single ~make:(fun () -> Apps.verilator_like ()) ~inputs:[ "dhrystone" ] );
    ("fleet_rollback", fleet) ]

(* ---- statistics and output ---- *)

(* Linear interpolation between order statistics, as Python's
   statistics.quantiles(method="inclusive"). *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

(* Ocolos_obs.Json prints floats to six decimals, for byte-stable
   artifacts; a measurement keeps every digit, and %.17g round-trips a
   double. Strings go through Ocolos_obs.Json's escaping. *)
let rec emit buf = function
  | Num f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Str s -> Buffer.add_string buf (Ocolos_obs.Json.to_string (Ocolos_obs.Json.String s))
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        emit buf v)
      l;
    Buffer.add_char buf ']'
  | Obj l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        emit buf (Str k);
        Buffer.add_string buf ": ";
        emit buf v)
      l;
    Buffer.add_char buf '}'

let json_string j =
  let buf = Buffer.create 1024 in
  emit buf j;
  Buffer.contents buf

(* ---- results-file stamp ---- *)

let first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        match input_line ic with s -> Some (String.trim s) | exception End_of_file -> None)

(* The commit of the checkout, read from .git without running git; a
   source tree without .git reads "unknown". *)
let git_commit () =
  match first_line ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let name = String.sub head 5 (String.length head - 5) in
    match first_line (".git/" ^ name) with
    | Some sha -> sha
    | None -> (
      match open_in ".git/packed-refs" with
      | exception Sys_error _ -> "unknown"
      | ic ->
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            let rec scan () =
              match input_line ic with
              | exception End_of_file -> "unknown"
              | line -> (
                match String.split_on_char ' ' line with
                | [ sha; n ] when n = name -> sha
                | _ -> scan ())
            in
            scan ())))
  | Some sha -> sha

let nproc () =
  match Unix.open_process_args_in "getconf" [| "getconf"; "_NPROCESSORS_ONLN" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let n = try String.trim (input_line ic) with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    n

(* ---- metrics ---- *)

type metric = { m_name : string; m_unit : string; m_value : float; m_samples : float list }

let host name unit values =
  { m_name = name; m_unit = unit; m_value = median values; m_samples = values }

let exact name unit value = { m_name = name; m_unit = unit; m_value = value; m_samples = [] }

let end_to_end ~heap_mb reps =
  let first = List.hd reps in
  [ host "campaign_mips" "Minstr/s"
      (List.map (fun r -> float_of_int r.instrs /. 1e6 /. r.campaign_s) reps);
    host "optimize_wall_s" "s" (List.map (fun r -> r.optimize_s) reps);
    host "setup_s" "s" (List.map (fun r -> r.setup_s) reps);
    exact "peak_heap_mb" "MB" heap_mb;
    exact "sim_speedup_x" "x" first.speedup;
    exact "sim_pause_s" "s" first.pause_s ]

let layer_names =
  [ "workloads.build"; "workloads.launch"; "ocolos.attach"; "proc.run"; "profiler.window";
    "profiler.perf2bolt"; "bolt.run"; "bolt.validate"; "shadow.prepare"; "shadow.check";
    "txn.replace"; "ocolos.gc_residue"; "fleet.tick.profile"; "fleet.tick.canary";
    "fleet.tick.rollback"; "fleet.tick.idle" ]

(* Counts reported per rep, and counts that are fractions (averaged over
   the layer's spans). *)
let volume_counts =
  [ ("proc.run", "minstr", "Minstr"); ("profiler.perf2bolt", "records", "count");
    ("bolt.run", "work_kinstr", "kinstr"); ("bolt.run", "hot_funcs", "count");
    ("bolt.run", "skipped", "count"); ("bolt.validate", "instrs", "count");
    ("bolt.validate", "rejections", "count"); ("txn.replace", "sites", "count");
    ("txn.replace", "kbytes_injected", "kB"); ("txn.replace", "frames_migrated", "count");
    ("txn.replace", "osr_stubs", "count"); ("txn.replace", "copied_funcs", "count");
    ("txn.replace", "rollbacks", "count") ]

let fraction_counts =
  [ ("bolt.run", "reordered_frac"); ("shadow.check", "match_frac");
    ("txn.replace", "copy_frac") ]

let per_layer ~first ~reps ~total_s ~total_minor ~span_cost =
  let layers = Spans.layers () in
  let spans = Spans.all () in
  let nreps = float_of_int reps in
  let get name =
    Option.value ~default:{ Spans.spans = 0; self_s = 0.0; self_minor = 0.0; layer_counts = [] }
      (Hashtbl.find_opt layers name)
  in
  let count name key =
    Option.value ~default:0.0 (List.assoc_opt key (get name).Spans.layer_counts)
  in
  let per_s name key =
    let s = (get name).Spans.self_s in
    if s > 0.0 then count name key /. s else 0.0
  in
  let covered_s = Hashtbl.fold (fun _ l acc -> acc +. l.Spans.self_s) layers 0.0 in
  let covered_minor = Hashtbl.fold (fun _ l acc -> acc +. l.Spans.self_minor) layers 0.0 in
  let shares =
    List.concat_map
      (fun name ->
        let l = get name in
        [ exact (name ^ ".share") "ratio" (l.Spans.self_s /. total_s);
          exact (name ^ ".alloc_mw") "Mwords" (l.Spans.self_minor /. 1e6 /. nreps) ])
      layer_names
    @ [ exact "bench.other.share" "ratio" ((total_s -. covered_s) /. total_s);
        exact "bench.other.alloc_mw" "Mwords" ((total_minor -. covered_minor) /. 1e6 /. nreps) ]
  in
  let volumes =
    List.map (fun (l, k, u) -> exact (l ^ "." ^ k) u (count l k /. nreps)) volume_counts
  in
  let fractions =
    List.map
      (fun (l, k) ->
        let n = (get l).Spans.spans in
        exact (l ^ "." ^ k) "ratio" (if n = 0 then 0.0 else count l k /. float_of_int n))
      fraction_counts
  in
  let s_per_instr name = (get name).Spans.self_s /. count name "minstr" in
  shares @ volumes @ fractions
  @ [ exact "proc.run.mips" "Minstr/s" (per_s "proc.run" "minstr");
      exact "profiler.window.sampling_overhead_x" "x"
        (s_per_instr "profiler.window" /. s_per_instr "proc.run");
      exact "profiler.perf2bolt.krecords_per_s" "krecords/s"
        (per_s "profiler.perf2bolt" "records" /. 1e3);
      exact "sim_l1i_mpki" "MPKI" first.l1i_mpki;
      exact "bench.rep.wall_s" "s" (total_s /. nreps);
      exact "bench.trace_overhead_frac" "ratio"
        (float_of_int (List.length spans) *. span_cost /. total_s) ]

(* ---- driver ---- *)

let usage =
  "campaign benchmark: main.exe --workload W --seed S --seconds T --trace 0|1\nworkloads: "
  ^ String.concat ", " (List.map fst workloads)

let sim_bits r = List.map Int64.bits_of_float [ r.speedup; r.pause_s; r.l1i_mpki ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "S launch seed (default 1; holdout seed 2)");
      ("--seconds", Arg.Set_float seconds, "T host seconds to measure for");
      ( "--trace",
        Arg.Int
          (function
            | 0 -> trace := false
            | 1 -> trace := true
            | n -> raise (Arg.Bad (Printf.sprintf "--trace takes 0 or 1, not %d" n))),
        "0|1 record spans and report per-layer metrics" ) ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline usage;
      exit 2
  in
  let seed = !seed in
  (* One set-up whose campaign never runs, so the first timed set-up does
     not also pay for the process's first heap growth. *)
  let (_ : unit -> rep) = setup ~seed in
  Spans.enabled := !trace;
  let start = now () in
  (* Reps run until the next one would overrun [--seconds]. [total_s] and
     [total_minor] cover the reps themselves, not the collections between
     them: the traced run's shares are shares of campaign time. *)
  let total_s = ref 0.0 and total_minor = ref 0.0 and heap_mb = ref 0.0 in
  let rec go acc =
    (* A full collection between reps, so no rep collects the previous
       rep's garbage. *)
    Gc.compact ();
    let t0 = now () and minor0 = Gc.minor_words () in
    let r = setup ~seed () in
    total_s := !total_s +. (now () -. t0);
    total_minor := !total_minor +. (Gc.minor_words () -. minor0);
    (* The peak heap of one campaign from a fresh process: later reps reuse
       a heap that earlier ones grew and fragmented. *)
    if acc = [] then
      heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    let acc = r :: acc in
    let elapsed = now () -. start in
    if elapsed +. (elapsed /. float_of_int (List.length acc)) <= !seconds then go acc
    else List.rev acc
  in
  let reps = go [] in
  Spans.enabled := false;
  (* Simulated-clock results are a function of the seed alone: every rep
     must reproduce the first bit for bit. *)
  let first = List.hd reps in
  let outcomes =
    List.concat_map
      (fun r ->
        if sim_bits r = sim_bits first then r.outcomes
        else List.map (fun _ -> Some "simulated metrics differ from the first rep") r.outcomes)
      reps
  in
  let failures = List.filter_map Fun.id outcomes in
  let metrics =
    if !trace then
      per_layer ~first ~reps:(List.length reps) ~total_s:!total_s ~total_minor:!total_minor
        ~span_cost:(Spans.cost_per_span ())
    else end_to_end ~heap_mb:!heap_mb reps
  in
  let correct = failures = [] in
  let attempted = List.length outcomes and failed = List.length failures in
  List.iter (fun why -> Printf.printf "%s FAIL %s\n" !workload why) failures;
  (* Always 0 on a correct run, so it travels in the verdict's
     attempted/failed counts rather than among the metrics. *)
  Printf.printf "%s campaign_fail_frac %.6g ratio (%d of %d)\n" !workload
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  List.iter
    (fun m ->
      match m.m_samples with
      | [] -> Printf.printf "%s %s %.6g %s\n" !workload m.m_name m.m_value m.m_unit
      | xs ->
        Printf.printf "%s %s %.6g %s (p25 %.6g p75 %.6g min %.6g max %.6g n %d)\n" !workload
          m.m_name m.m_value m.m_unit (quantile xs 0.25) (quantile xs 0.75)
          (List.fold_left Float.min infinity xs)
          (List.fold_left Float.max neg_infinity xs)
          (List.length xs))
    metrics;
  let metrics_json =
    Obj
      (List.map
         (fun m -> (m.m_name, Obj [ ("value", Num m.m_value); ("unit", Str m.m_unit) ]))
         metrics)
  in
  let results =
    Obj
      [ ( "stamp",
          Obj
            [ ("git_commit", Str (git_commit ()));
              ("ocaml_version", Str Sys.ocaml_version);
              ("build_profile", Str Build_info.profile);
              ("nproc", Str (nproc ()));
              ("reps", Int (List.length reps));
              ("seed", Int seed);
              ("workload", Str !workload);
              ("seconds", Num !seconds);
              ("trace", Bool !trace) ] );
        ("correct", Bool correct);
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("failures", Arr (List.map (fun s -> Str s) failures));
        ("metrics", metrics_json);
        ( "reps",
          Arr
            (List.map
               (fun r ->
                 Obj
                   [ ("setup_s", Num r.setup_s);
                     ("optimize_s", Num r.optimize_s);
                     ("campaign_s", Num r.campaign_s);
                     ("instrs", Int r.instrs);
                     ("sim_speedup_x", Num r.speedup);
                     ("sim_pause_s", Num r.pause_s);
                     ("sim_l1i_mpki", Num r.l1i_mpki) ])
               reps) );
        ( "spans",
          Arr
            (List.map
               (fun sp ->
                 Obj
                   ([ ("id", Int sp.Spans.id);
                      ("parent", Int sp.Spans.parent);
                      ("name", Str sp.Spans.name);
                      ("start_s", Num (sp.Spans.start -. start));
                      ("end_s", Num (sp.Spans.stop -. start));
                      ("minor_words", Num sp.Spans.minor) ]
                   @ List.map (fun (k, v) -> (k, Num v)) sp.Spans.counts))
               (Spans.all ())) ) ]
  in
  let dir = Filename.concat "campaign_bench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s.seed%d.trace%d.json" !workload seed (Bool.to_int !trace))
  in
  let oc = open_out path in
  output_string oc (json_string results);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" path;
  print_endline
    (json_string
       (Obj
          [ ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", metrics_json) ]));
  if not correct then exit 1
