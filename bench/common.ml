(* Shared state for the benchmark harness: the benchmark applications, and
   memoized profiles / optimized binaries / measurements so that experiments
   can share work (Fig. 5's measurements feed Fig. 8 and Fig. 9, Fig. 3
   reuses Fig. 5's per-input BOLT binaries, and so on). *)

open Ocolos_workloads
module Measure = Ocolos_sim.Measure

let warmup = 0.4
let measure_s = 1.5
let profile_s = 2.0

let mysql = lazy (Apps.mysql_like ())
let mongodb = lazy (Apps.mongodb_like ())
let memcached = lazy (Apps.memcached_like ())
let verilator = lazy (Apps.verilator_like ())

(* Dispatch-bound microbenchmark for the engine comparison: long
   straight-line bodies, no parser, no v-table or function-pointer
   dispatch, minimal branching. Per-instruction dispatch overhead — the
   cost the decoded-block engine removes — dominates here, while the app
   workloads above measure the mixed case. *)
let straightline =
  lazy
    (let cfg =
       { Gen.default with
         Gen.seed = 7;
         n_tx_types = 2;
         funcs_per_type = 10;
         shared_funcs = 24;
         cold_funcs = 16;
         parser_blocks = 0;
         blocks_per_func = (2, 3);
         body_instrs = (48, 64);
         calls_per_func = (0, 1);
         error_prob = 0.05;
         loop_prob = 0.0;
         use_vtable_dispatch = false;
         fp_sites_per_type = false }
     in
     let inputs =
       [ Input.make ~name:"hot" ~mix:(Input.pure ~n_types:2 0) ~bias_seed:201 () ]
     in
     Workload.build ~name:"straightline" ~inputs ~nthreads:4 (Gen.generate cfg))

(* Dispatch-bound microbenchmark, the floor for the bench-smoke
   [blocks >= reference] gate: check-dense code. Nearly every block is an
   assertion-style guard — materialize a value, check it with a never-taken
   branch to a cold handler — so the hot path is a fall-through chain of
   two-instruction decoded blocks. Dispatch — a memo miss, a hash lookup
   and fresh loop setup every couple of instructions — dominates the block
   engine, while the per-instruction kernel stays lean (not-taken branches
   keep the fetch fast path alive: no taken-transfer bubble, no cache-line
   reset). This is where the block engine's per-block amortization buys
   the least over the reference interpreter. Functions are long and
   call-free, and v-table dispatch is on so the hot path also crosses
   monomorphic indirect-call sites. *)
let branchy =
  lazy
    (let cfg =
       { Gen.default with
         Gen.seed = 13;
         n_tx_types = 2;
         funcs_per_type = 6;
         shared_funcs = 8;
         cold_funcs = 8;
         parser_blocks = 0;
         blocks_per_func = (32, 48);
         body_instrs = (0, 0);
         calls_per_func = (0, 0);
         error_prob = 0.05;
         check_prob = 0.8;
         loop_prob = 0.0;
         use_vtable_dispatch = true;
         fp_sites_per_type = false }
     in
     let inputs =
       [ Input.make ~name:"hot" ~mix:(Input.pure ~n_types:2 0) ~bias_seed:203 () ]
     in
     Workload.build ~name:"branchy" ~inputs ~nthreads:4 (Gen.generate cfg))

let all_apps () =
  [ Lazy.force mysql; Lazy.force mongodb; Lazy.force memcached; Lazy.force verilator ]

(* ---- memo tables ---- *)

let profiles : (string, Ocolos_profiler.Profile.t) Hashtbl.t = Hashtbl.create 32
let bolts : (string, Ocolos_binary.Binary.t) Hashtbl.t = Hashtbl.create 32
let pgos : (string, Ocolos_pgo.Pgo.result) Hashtbl.t = Hashtbl.create 32
let samples : (string, Measure.sample) Hashtbl.t = Hashtbl.create 64
let ocolos_runs : (string, Measure.ocolos_run) Hashtbl.t = Hashtbl.create 32

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

(* Oracle profile: collected offline while running [input]. *)
let oracle_profile (w : Workload.t) (input : Input.t) =
  memo profiles
    (w.Workload.name ^ "/" ^ input.Input.name)
    (fun () -> Measure.collect_profile ~seconds:profile_s w ~input)

(* Average-case profile: all of the app's inputs merged (paper Fig. 3
   "all" / Fig. 5 "BOLT average-case"). *)
let avg_profile (w : Workload.t) =
  memo profiles (w.Workload.name ^ "/ALL") (fun () ->
      Ocolos_profiler.Profile.merge (List.map (fun i -> oracle_profile w i) w.Workload.inputs))

let bolt_with (w : Workload.t) ~key profile =
  memo bolts (w.Workload.name ^ "/" ^ key) (fun () ->
      Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary (Measure.bolt_binary w profile))

let bolt_oracle w (input : Input.t) = bolt_with w ~key:input.Input.name (oracle_profile w input)
let bolt_avg w = bolt_with w ~key:"ALL" (avg_profile w)

let pgo_oracle (w : Workload.t) (input : Input.t) =
  memo pgos
    (w.Workload.name ^ "/" ^ input.Input.name)
    (fun () -> Measure.pgo_binary w (oracle_profile w input))

(* Steady-state measurement of a binary variant. *)
let steady (w : Workload.t) ?binary ~variant (input : Input.t) =
  memo samples
    (Printf.sprintf "%s/%s/%s" w.Workload.name input.Input.name variant)
    (fun () -> Measure.steady ?binary ~warmup ~measure:measure_s w ~input)

let steady_orig w input = steady w ~variant:"orig" input

let ocolos (w : Workload.t) (input : Input.t) =
  memo ocolos_runs
    (w.Workload.name ^ "/" ^ input.Input.name)
    (fun () -> Measure.ocolos_steady ~warmup ~profile_s ~measure:measure_s w ~input)

(* The Fig. 5 comparator set for one (app, input): normalized throughputs. *)
type comparison = {
  c_app : string;
  c_input : string;
  orig_tps : float;
  ocolos_x : float;
  bolt_oracle_x : float;
  pgo_oracle_x : float;
  bolt_avg_x : float;
}

let compare_input (w : Workload.t) (input : Input.t) =
  let orig = steady_orig w input in
  let norm s = s.Measure.tps /. orig.Measure.tps in
  let bolt = steady w ~binary:(bolt_oracle w input) ~variant:"bolt" input in
  let pgo = steady w ~binary:(pgo_oracle w input).Ocolos_pgo.Pgo.binary ~variant:"pgo" input in
  let avg = steady w ~binary:(bolt_avg w) ~variant:"boltavg" input in
  let oco = ocolos w input in
  { c_app = w.Workload.name;
    c_input = input.Input.name;
    orig_tps = orig.Measure.tps;
    ocolos_x = oco.Measure.post.Measure.tps /. orig.Measure.tps;
    bolt_oracle_x = norm bolt;
    pgo_oracle_x = norm pgo;
    bolt_avg_x = norm avg }

let progress fmt = Fmt.epr (fmt ^^ "@.")
