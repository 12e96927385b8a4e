(* Property-based tests (qcheck): the load-bearing invariants of the whole
   system, checked over randomly generated programs, layouts and replacement
   points. *)

open Ocolos_workloads

(* Random small application configurations: every program the generator can
   produce, at test-friendly scale. *)
let gen_config_arbitrary =
  QCheck.make
    ~print:(fun (seed, tx, fpt, shared, cold, parser, jts, lim) ->
      Printf.sprintf "seed=%d tx=%d fpt=%d shared=%d cold=%d parser=%d jts=%d lim=%d" seed tx
        fpt shared cold parser jts lim)
    QCheck.Gen.(
      tup8 (int_bound 10_000) (int_range 1 3) (int_range 1 4) (int_range 2 6) (int_bound 4)
        (int_range 0 16) (int_bound 2) (int_range 8 25))

let workload_of (seed, tx, fpt, shared, cold, parser, jts, lim) =
  let cfg =
    { Gen.default with
      Gen.seed;
      n_tx_types = tx;
      funcs_per_type = fpt;
      shared_funcs = shared;
      cold_funcs = cold;
      parser_blocks = parser;
      jump_table_sites = jts;
      blocks_per_func = (2, 5);
      tx_limit = Some lim;
      use_vtable_dispatch = seed mod 2 = 0;
      fp_sites_per_type = seed mod 3 <> 0;
      scan_tx = None }
  in
  let gen = Gen.generate cfg in
  let inputs =
    [ Input.make ~name:"p" ~mix:(Array.make tx (1.0 /. float_of_int tx)) ~bias_seed:(seed + 1) () ]
  in
  Workload.build ~name:"prop" ~inputs ~nthreads:2 gen

let run_to_completion ?binary w =
  let input = List.hd w.Workload.inputs in
  let proc = Workload.launch ?binary w ~input in
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:30_000_000 proc;
  let halted =
    Array.for_all
      (fun (t : Ocolos_proc.Thread.t) -> t.Ocolos_proc.Thread.state = Ocolos_proc.Thread.Halted)
      proc.Ocolos_proc.Proc.threads
  in
  (halted, Workload.checksums proc, Ocolos_proc.Proc.transactions proc)

(* LBR samples of a short profiled run of [w]. *)
let profile_samples w ~seed =
  let proc = Workload.launch ~seed w ~input:(Workload.find_input w "p") in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  Ocolos_profiler.Perf.stop session

(* Reference perf2bolt: classify every LBR record on its own, in stream
   order — the straightforward per-record conversion the aggregating
   [Perf2bolt.convert] must reproduce table for table. *)
let reference_convert ~(binary : Ocolos_binary.Binary.t) samples =
  let module B = Ocolos_binary.Binary in
  let module P = Ocolos_profiler.Profile in
  let p = P.create () in
  let index = B.build_addr_index binary in
  let fid_of = B.index_lookup index in
  let is_entry a = Array.exists (fun s -> s.B.fs_entry = a) binary.B.symbols in
  List.iter
    (fun (s : Ocolos_profiler.Perf.sample) ->
      let es = s.Ocolos_profiler.Perf.entries in
      Array.iteri
        (fun i { Ocolos_profiler.Lbr.from_addr; to_addr } ->
          P.add_branch p ~from_addr ~to_addr 1;
          let ff = fid_of from_addr and ft = fid_of to_addr in
          Option.iter (fun f -> P.add_func_record p f 1) ff;
          (match ft with Some f when ff <> Some f -> P.add_func_record p f 1 | _ -> ());
          (match (ff, ft) with
          | Some caller, Some callee ->
            let is_call =
              match B.find_instr binary from_addr with
              | Some (Ocolos_isa.Instr.Call _ | Ocolos_isa.Instr.CallInd _) -> true
              | Some _ -> false
              | None -> is_entry to_addr && caller <> callee
            in
            if is_call then P.add_call p ~caller ~callee 1
          | _ -> ());
          if i + 1 < Array.length es then begin
            let start_addr = to_addr and end_addr = es.(i + 1).Ocolos_profiler.Lbr.from_addr in
            match (fid_of start_addr, fid_of end_addr) with
            | Some f1, Some f2 when start_addr <= end_addr && f1 = f2 ->
              P.add_range p ~start_addr ~end_addr 1
            | _ -> ()
          end)
        es)
    samples;
  p

(* Every table's bindings in [Hashtbl.fold] order — unsorted, so two views
   are equal only if the tables iterate identically — plus the total. *)
let profile_view (p : Ocolos_profiler.Profile.t) =
  let module P = Ocolos_profiler.Profile in
  let bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  ( bindings p.P.branches,
    bindings p.P.ranges,
    bindings p.P.calls,
    bindings p.P.func_records,
    p.P.total_records )

(* 1. Generated programs always validate, emit, and terminate. *)
let prop_programs_terminate =
  QCheck.Test.make ~name:"generated programs terminate" ~count:25 gen_config_arbitrary
    (fun params ->
      let w = workload_of params in
      let halted, _, tx = run_to_completion w in
      halted && tx > 0)

(* 2. Code layout never changes semantics. *)
let prop_layout_invariance =
  QCheck.Test.make ~name:"random layouts preserve semantics" ~count:15 gen_config_arbitrary
    (fun params ->
      let w = workload_of params in
      let reference = run_to_completion w in
      let rng = Ocolos_util.Rng.create (Hashtbl.hash params) in
      let layout = Ocolos_binary.Layout.randomize rng w.Workload.program in
      let e = Ocolos_binary.Emit.emit ~name:"prop.rand" w.Workload.program layout in
      run_to_completion ~binary:e.Ocolos_binary.Emit.binary w = reference)

(* 3. The full BOLT pipeline preserves semantics. *)
let prop_bolt_preserves_semantics =
  QCheck.Test.make ~name:"BOLT pipeline preserves semantics" ~count:12 gen_config_arbitrary
    (fun params ->
      let w = workload_of params in
      let reference = run_to_completion w in
      (* Collect a partial-run profile. *)
      let input = List.hd w.Workload.inputs in
      let proc = Workload.launch w ~input in
      let session = Ocolos_profiler.Perf.start proc in
      Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:40_000 proc;
      let profile =
        Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary
          (Ocolos_profiler.Perf.stop session)
      in
      let r = Ocolos_bolt.Bolt.run ~binary:w.Workload.binary ~profile () in
      run_to_completion ~binary:r.Ocolos_bolt.Bolt.merged w = reference)

(* 4. OCOLOS replacement at an arbitrary execution point preserves
   semantics (including the stop point being mid-transaction, mid-call). *)
let prop_ocolos_replacement_preserves_semantics =
  QCheck.Test.make ~name:"OCOLOS replacement preserves semantics" ~count:12
    (QCheck.pair gen_config_arbitrary (QCheck.make QCheck.Gen.(int_range 1_000 80_000)))
    (fun (params, stop_point) ->
      let w = workload_of params in
      let reference = run_to_completion w in
      let input = List.hd w.Workload.inputs in
      let proc = Workload.launch w ~input in
      let oc = Ocolos_core.Ocolos.attach proc in
      Ocolos_core.Ocolos.start_profiling oc;
      Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:stop_point proc;
      let profile, _ = Ocolos_core.Ocolos.stop_profiling oc in
      let result, _ = Ocolos_core.Ocolos.run_bolt oc profile in
      ignore (Ocolos_core.Ocolos.replace_code oc result);
      Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:30_000_000 proc;
      let halted =
        Array.for_all
          (fun (t : Ocolos_proc.Thread.t) ->
            t.Ocolos_proc.Thread.state = Ocolos_proc.Thread.Halted)
          proc.Ocolos_proc.Proc.threads
      in
      (halted, Workload.checksums proc, Ocolos_proc.Proc.transactions proc) = reference)

(* 5. Differential execution equivalence: the full online cycle
   (profile -> BOLT -> replace -> run) leaves each thread's control flow —
   the per-thread sequence of calls and returns, resolved to function ids —
   exactly what a never-optimized run produces. Checksums catch corrupted
   data; this catches control-flow divergence at instruction granularity
   (every call/return edge) even when the data happens to survive. The
   profile comes from a twin process so the recording hook stays installed
   across the whole subject run. *)
let record_call_trace (proc : Ocolos_proc.Proc.t) =
  let buf = ref [] in
  proc.Ocolos_proc.Proc.hooks.Ocolos_proc.Proc.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ~cycles ->
        ignore from_addr;
        ignore cycles;
        match kind with
        | Ocolos_proc.Proc.DirectCall | Ocolos_proc.Proc.IndCall | Ocolos_proc.Proc.Return
          ->
          buf :=
            (tid, kind, Ocolos_proc.Addr_space.fid_of_addr proc.Ocolos_proc.Proc.mem to_addr)
            :: !buf
        | Ocolos_proc.Proc.Cond | Ocolos_proc.Proc.Jump | Ocolos_proc.Proc.IndJump -> ());
  buf

let per_tid_traces buf nthreads =
  List.init nthreads (fun tid ->
      List.rev (List.filter_map (fun (t, k, f) -> if t = tid then Some (k, f) else None) !buf))

let prop_differential_c0_c1 =
  QCheck.Test.make ~name:"differential: C0/C1 per-thread call traces equal" ~count:10
    (QCheck.pair gen_config_arbitrary (QCheck.make QCheck.Gen.(int_range 2_000 40_000)))
    (fun (params, stop_point) ->
      let w = workload_of params in
      let input = List.hd w.Workload.inputs in
      let run ~replace =
        let proc = Workload.launch w ~input in
        let buf = record_call_trace proc in
        if replace then begin
          let twin = Workload.launch w ~input in
          let session = Ocolos_profiler.Perf.start twin in
          Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:stop_point twin;
          let profile =
            Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary
              (Ocolos_profiler.Perf.stop session)
          in
          let r = Ocolos_bolt.Bolt.run ~binary:w.Workload.binary ~profile () in
          let oc = Ocolos_core.Ocolos.attach proc in
          Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:stop_point proc;
          ignore (Ocolos_core.Ocolos.replace_code oc r)
        end;
        Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:30_000_000 proc;
        ( per_tid_traces buf (Array.length proc.Ocolos_proc.Proc.threads),
          Workload.checksums proc,
          Ocolos_proc.Proc.transactions proc )
      in
      let traces_c1, sums_c1, tx_c1 = run ~replace:true in
      let traces_c0, sums_c0, tx_c0 = run ~replace:false in
      traces_c1 = traces_c0
      && List.exists (fun t -> t <> []) traces_c0
      && sums_c1 = sums_c0 && tx_c1 = tx_c0)

(* 6. Cache invariants. *)
let prop_cache_hit_after_access =
  QCheck.Test.make ~name:"cache: resident after access" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.int_bound 100_000))
    (fun addrs ->
      let c = Ocolos_uarch.Cache.of_size ~name:"p" ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
      List.for_all
        (fun a ->
          ignore (Ocolos_uarch.Cache.access c a);
          Ocolos_uarch.Cache.probe c a)
        addrs)

let prop_cache_capacity_bound =
  QCheck.Test.make ~name:"cache: residency bounded by capacity" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (QCheck.int_bound 1_000_000))
    (fun addrs ->
      let c = Ocolos_uarch.Cache.of_size ~name:"p" ~size_bytes:1024 ~ways:2 ~line_bytes:64 in
      List.iter (fun a -> ignore (Ocolos_uarch.Cache.access c a)) addrs;
      let distinct_lines = List.sort_uniq compare (List.map (fun a -> a / 64) addrs) in
      let resident = List.filter (fun l -> Ocolos_uarch.Cache.probe c (l * 64)) distinct_lines in
      List.length resident <= 16)

(* 7. Profile merge is order-insensitive. *)
let prop_profile_merge_commutes =
  QCheck.Test.make ~name:"profile merge commutes" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 30) (pair small_nat small_nat))
        (list_of_size (QCheck.Gen.int_range 0 30) (pair small_nat small_nat)))
    (fun (e1, e2) ->
      let mk edges =
        let p = Ocolos_profiler.Profile.create () in
        List.iter (fun (f, t) -> Ocolos_profiler.Profile.add_branch p ~from_addr:f ~to_addr:t 1) edges;
        p
      in
      let a = Ocolos_profiler.Profile.merge [ mk e1; mk e2 ] in
      let b = Ocolos_profiler.Profile.merge [ mk e2; mk e1 ] in
      List.for_all
        (fun key ->
          Ocolos_profiler.Profile.branch_count a key = Ocolos_profiler.Profile.branch_count b key)
        (e1 @ e2))

(* 8. Block layout output is always a permutation with the entry first. *)
let prop_layout_func_permutation =
  QCheck.Test.make ~name:"bb layout is a permutation, entry first" ~count:100
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 12)) (QCheck.make QCheck.Gen.(int_bound 10_000)))
    (fun (n, seed) ->
      let rng = Ocolos_util.Rng.create seed in
      let rc =
        { Ocolos_bolt.Cfg.rc_fid = 0;
          rc_func = { Ocolos_isa.Ir.fid = 0; fname = "p"; blocks = [||] };
          rc_block_addr = Array.init n (fun i -> i * 20);
          rc_block_end = Array.init n (fun i -> (i * 20) + 20);
          rc_counts = Array.init n (fun _ -> Ocolos_util.Rng.int rng 100);
          rc_edges = Hashtbl.create 16;
          rc_instr_count = n * 4;
          rc_instr_addrs = [||] }
      in
      for _ = 1 to n * 2 do
        let u = Ocolos_util.Rng.int rng n and v = Ocolos_util.Rng.int rng n in
        Hashtbl.replace rc.Ocolos_bolt.Cfg.rc_edges (u, v) (1 + Ocolos_util.Rng.int rng 50)
      done;
      let hot, cold = Ocolos_bolt.Bb_reorder.layout_func ~split:(seed mod 2 = 0) rc in
      let all = List.sort compare (hot @ cold) in
      all = List.init n (fun i -> i) && (hot = [] || List.hd hot = 0))

(* 9. Emission is deterministic. *)
let prop_emit_deterministic =
  QCheck.Test.make ~name:"emission deterministic" ~count:10 gen_config_arbitrary
    (fun params ->
      let a = workload_of params and b = workload_of params in
      Ocolos_binary.Binary.instr_count a.Workload.binary
      = Ocolos_binary.Binary.instr_count b.Workload.binary
      && a.Workload.binary.Ocolos_binary.Binary.entry
         = b.Workload.binary.Ocolos_binary.Binary.entry)

(* 10. Supervision: under ANY survivable fault schedule at ANY catalog
   point, a campaign never runs more than max_retries + 1 attempts, the
   attempt ledger balances (attempts = replacements + rollbacks after every
   tick), and giving_up is announced exactly at the budget boundary. *)
let fault_catalog = Ocolos_core.Ocolos.fault_catalog

let gen_fault_run =
  QCheck.make
    ~print:(fun (pi, kind, k, seed, max_retries) ->
      Printf.sprintf "point=%s kind=%d k=%d seed=%d max_retries=%d"
        (List.nth fault_catalog (pi mod List.length fault_catalog))
        kind k seed max_retries)
    QCheck.Gen.(
      tup5 (int_bound 1000) (int_bound 2) (int_range 1 3) (int_bound 10_000) (int_range 0 3))

let prop_campaign_respects_retry_budget =
  QCheck.Test.make ~name:"campaign never exceeds the retry budget" ~count:10 gen_fault_run
    (fun (pi, kind, k, seed, max_retries) ->
      let module Daemon = Ocolos_core.Daemon in
      let point = List.nth fault_catalog (pi mod List.length fault_catalog) in
      let schedule =
        match kind with
        | 0 -> Ocolos_util.Fault.Nth k
        | 1 -> Ocolos_util.Fault.Every k
        | _ -> Ocolos_util.Fault.Prob (float_of_int k /. 4.0 |> Float.min 1.0)
      in
      let w = Apps.tiny ~tx_limit:None () in
      let proc = Workload.launch ~seed:(1 + (seed mod 97)) w ~input:(Workload.find_input w "a") in
      let fault = Ocolos_util.Fault.create ~seed () in
      Ocolos_util.Fault.arm fault point schedule;
      let oc =
        Ocolos_core.Ocolos.attach
          ~config:
            { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
          proc
      in
      let config =
        { Daemon.default_config with
          Daemon.profile_s = 1.0;
          warmup_s = 0.5;
          min_interval_s = 2.0;
          max_retries;
          retry_backoff_s = 0.25 }
      in
      let d = Daemon.create ~config oc proc in
      let ok = ref true in
      for s = 1 to 10 do
        let now_s = float_of_int s in
        Ocolos_proc.Proc.run ~cycle_limit:(Ocolos_sim.Clock.seconds_to_cycles now_s) proc;
        (match Daemon.tick d ~now_s with
        | Daemon.Rolled_back { attempt; giving_up; _ } ->
          if attempt > max_retries + 1 then ok := false;
          if giving_up <> (attempt = max_retries + 1) then ok := false
        | Daemon.Retrying { attempt } -> if attempt > max_retries + 1 then ok := false
        | _ -> ());
        (* The ledger balances after every tick: each attempt either
           committed or rolled back, never vanished. *)
        if Daemon.attempts d <> Daemon.replacements d + Daemon.rollbacks d then ok := false;
        if Daemon.retries d > Daemon.rollbacks d then ok := false
      done;
      !ok)

(* 11. Quarantine is monotone and exact: under random failure batches
   interleaved with campaign outcomes, a fid is quarantined iff its
   cumulative failures reached quarantine_after, and the set never
   shrinks. *)
let prop_quarantine_monotone =
  QCheck.Test.make ~name:"quarantine monotone and threshold-exact" ~count:100
    QCheck.(
      pair
        (QCheck.make QCheck.Gen.(int_range 1 4))
        (list_of_size (QCheck.Gen.int_range 0 30)
           (pair (QCheck.int_bound 9) (QCheck.int_bound 2))))
    (fun (quarantine_after, batches) ->
      let module Guard = Ocolos_core.Guard in
      let g =
        Guard.create ~config:{ Guard.default_config with Guard.quarantine_after } ()
      in
      let failures = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (fid, outcome) ->
          let before = Guard.quarantined g in
          Guard.record_func_failures g [ (fid, "bolt.cfg") ];
          Hashtbl.replace failures fid
            (1 + Option.value ~default:0 (Hashtbl.find_opt failures fid));
          (* Outcomes between batches must not shrink the set. *)
          (match outcome with
          | 0 -> Guard.campaign_succeeded g
          | 1 -> Guard.campaign_failed g ~now_s:0.0
          | _ -> ());
          let after = Guard.quarantined g in
          if not (List.for_all (fun f -> List.mem f after) before) then ok := false;
          Hashtbl.iter
            (fun f n ->
              if (n >= quarantine_after) <> Guard.is_quarantined g f then ok := false)
            failures)
        batches;
      !ok)

(* 12. Fleet rollout atomicity: under ANY survivable fault schedule at ANY
   catalog point, the fleet is never mixed outside an in-flight rollout —
   a staged rollout either widens to every replica or unwinds completely,
   and whatever the schedule did, the run ends homogeneous (or still
   mid-rollout, which the next tick would resolve the same way). *)
let prop_fleet_rollout_atomic =
  QCheck.Test.make ~name:"fleet rollout atomic under any fault schedule" ~count:10
    gen_fault_run
    (fun (pi, kind, k, seed, _) ->
      let module Fleet = Ocolos_core.Fleet in
      let module Daemon = Ocolos_core.Daemon in
      let point = List.nth fault_catalog (pi mod List.length fault_catalog) in
      let schedule =
        match kind with
        | 0 -> Ocolos_util.Fault.Nth k
        | 1 -> Ocolos_util.Fault.Every k
        | _ -> Ocolos_util.Fault.Prob (float_of_int k /. 4.0 |> Float.min 1.0)
      in
      let replicas = 2 + (seed mod 3) in
      let w = Apps.tiny ~tx_limit:None () in
      let procs =
        Array.init replicas (fun i ->
            Workload.launch ~seed:(1 + i + (seed mod 97)) w ~input:(Workload.find_input w "a"))
      in
      let fault = Ocolos_util.Fault.create ~seed () in
      Ocolos_util.Fault.arm fault point schedule;
      let ocfg =
        { Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
      in
      let fcfg =
        { Fleet.default_config with
          Fleet.daemon =
            { Daemon.default_config with
              Daemon.profile_s = 1.0;
              warmup_s = 0.5;
              min_interval_s = 2.0;
              retry_backoff_s = 0.5 } }
      in
      let fleet = Fleet.create ~config:fcfg ~ocolos_config:ocfg procs in
      let in_rollout = ref false and ok = ref true in
      for s = 1 to 20 do
        Array.iter
          (fun p -> Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:12_000 p)
          procs;
        (match Fleet.tick fleet ~now_s:(float_of_int s) with
        | Fleet.Canary_started _ -> in_rollout := true
        | Fleet.Promoted _ | Fleet.Rolled_back _ | Fleet.Campaign_aborted _ ->
          in_rollout := false
        | Fleet.Idle | Fleet.Started_profiling _ | Fleet.Breaker_open _ -> ());
        if (not !in_rollout) && Fleet.mixed fleet then ok := false
      done;
      !ok && (!in_rollout || Fleet.converged fleet))

(* 13. Cross-replica aggregation is count-equivalent: N replicas of the
   same deterministic binary produce identical sample streams, so keeping
   1/N of the stream per replica at interleaved phases and aggregating
   recovers exactly the full-rate profile — every edge, range, call-graph
   and per-function count, and the record total. (Iteration order follows
   the concatenated streams, not the full-rate one.) *)
let prop_fleet_aggregation_count_equivalent =
  QCheck.Test.make ~name:"1/N cross-replica aggregate count-equivalent to full rate" ~count:10
    (QCheck.pair gen_config_arbitrary (QCheck.make QCheck.Gen.(int_range 1 4)))
    (fun (params, n) ->
      let module Profile = Ocolos_profiler.Profile in
      let w = workload_of params in
      let proc = Workload.launch ~seed:11 w ~input:(Workload.find_input w "p") in
      let session = Ocolos_profiler.Perf.start proc in
      Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
      let samples = Ocolos_profiler.Perf.stop session in
      let binary = w.Workload.binary in
      let full = Ocolos_profiler.Perf2bolt.convert ~binary samples in
      let sources =
        List.init n (fun i -> Ocolos_profiler.Perf2bolt.decimate ~keep_every:n ~phase:i samples)
      in
      let agg = Ocolos_profiler.Perf2bolt.convert_sources ~binary sources in
      let bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare in
      bindings full.Profile.branches = bindings agg.Profile.branches
      && bindings full.Profile.ranges = bindings agg.Profile.ranges
      && bindings full.Profile.calls = bindings agg.Profile.calls
      && bindings full.Profile.func_records = bindings agg.Profile.func_records
      && full.Profile.total_records = agg.Profile.total_records
      (* Order-sensitive too: table for table, iteration order included,
         the aggregate is the per-record conversion of the concatenated
         streams. *)
      && profile_view agg = profile_view (reference_convert ~binary (List.concat sources)))

(* 13b. Aggregate-then-classify perf2bolt is the per-record conversion:
   over random workloads and seeds, with some batches degraded the way a
   flaky PMI delivers them (truncated, address-scrambled), [convert] and a
   multi-source [convert_sources] build all four tables with the same
   bindings in the same [Hashtbl.fold] order as the reference above, and
   the same record total. *)
let prop_perf2bolt_matches_per_record_reference =
  QCheck.Test.make ~name:"perf2bolt aggregate-then-classify = per-record reference" ~count:12
    (QCheck.pair gen_config_arbitrary (QCheck.make QCheck.Gen.(int_range 0 1_000)))
    (fun (params, seed) ->
      let module Perf = Ocolos_profiler.Perf in
      let module Lbr = Ocolos_profiler.Lbr in
      let w = workload_of params in
      let samples =
        profile_samples w ~seed
        |> List.mapi (fun i (s : Perf.sample) ->
               match (i + seed) mod 7 with
               | 0 -> { s with Perf.entries = Lbr.truncate_batch s.Perf.entries }
               | 1 -> { s with Perf.entries = Lbr.corrupt_batch s.Perf.entries }
               | _ -> s)
      in
      let binary = w.Workload.binary in
      let expected = profile_view (reference_convert ~binary samples) in
      let k = 1 + (seed mod 3) in
      let sources = List.init k (fun i -> List.filteri (fun j _ -> j mod k = i) samples) in
      profile_view (Ocolos_profiler.Perf2bolt.convert ~binary samples) = expected
      && profile_view (Ocolos_profiler.Perf2bolt.convert_sources ~binary sources)
         = profile_view (reference_convert ~binary (List.concat sources)))

(* 14. Two-engine differential: over random workloads and seeds, a full
   online cycle — warm-up, profile, BOLT, one replacement rolled back by an
   injected fault, one committed replacement, more execution — leaves every
   observable byte-identical between the reference interpreter and the
   decoded-block engine: instret, uarch counters, the taken-branch trace,
   data checksums, and the Chrome / Prometheus exports. Reuses the
   block-engine differential harness ([Test_block_engine.scenario]), which
   exercises both journal-replay rollback and committed replacement
   against the block cache. *)
let prop_two_engine_differential =
  QCheck.Test.make ~name:"two engines byte-identical under replacement + rollback"
    ~count:4
    (QCheck.make QCheck.Gen.(int_range 0 1_000))
    (fun seed ->
      let w = Test_block_engine.random_workload seed in
      Test_block_engine.scenario ~engine:`Blocks w
      = Test_block_engine.scenario ~engine:`Reference w)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_programs_terminate;
      prop_layout_invariance;
      prop_bolt_preserves_semantics;
      prop_ocolos_replacement_preserves_semantics;
      prop_differential_c0_c1;
      prop_cache_hit_after_access;
      prop_cache_capacity_bound;
      prop_profile_merge_commutes;
      prop_layout_func_permutation;
      prop_emit_deterministic;
      prop_campaign_respects_retry_budget;
      prop_quarantine_monotone;
      prop_fleet_rollout_atomic;
      prop_fleet_aggregation_count_equivalent;
      prop_perf2bolt_matches_per_record_reference;
      prop_two_engine_differential ]
