(* Unit tests for the profiling stack: LBR ring, perf sessions, profile
   aggregation and perf2bolt conversion. *)

open Ocolos_workloads

let test_lbr_ring () =
  let l = Ocolos_profiler.Lbr.create () in
  Alcotest.(check int) "empty" 0 (Array.length (Ocolos_profiler.Lbr.snapshot l));
  for i = 1 to 5 do
    Ocolos_profiler.Lbr.record l ~from_addr:i ~to_addr:(i * 10)
  done;
  let s = Ocolos_profiler.Lbr.snapshot l in
  Alcotest.(check int) "five entries" 5 (Array.length s);
  Alcotest.(check int) "oldest first" 1 s.(0).Ocolos_profiler.Lbr.from_addr;
  Alcotest.(check int) "newest last" 5 s.(4).Ocolos_profiler.Lbr.from_addr

let test_lbr_wraps_at_capacity () =
  let l = Ocolos_profiler.Lbr.create () in
  let cap = Ocolos_profiler.Lbr.capacity in
  for i = 1 to cap + 10 do
    Ocolos_profiler.Lbr.record l ~from_addr:i ~to_addr:i
  done;
  let s = Ocolos_profiler.Lbr.snapshot l in
  Alcotest.(check int) "capped" cap (Array.length s);
  Alcotest.(check int) "oldest is 11" 11 s.(0).Ocolos_profiler.Lbr.from_addr;
  Ocolos_profiler.Lbr.clear l;
  Alcotest.(check int) "cleared" 0 (Array.length (Ocolos_profiler.Lbr.snapshot l))

let test_perf_session_collects () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:100_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  Alcotest.(check bool) "samples collected" true (List.length samples > 10);
  Alcotest.(check bool) "records in samples" true
    (Ocolos_profiler.Perf.record_count samples > 100);
  (* After stop, the hook is removed: further running adds nothing. *)
  let n = List.length samples in
  Ocolos_proc.Proc.run ~cycle_limit:150_000.0 proc;
  Alcotest.(check int) "no more samples" n (List.length samples)

let test_perf_sampling_period () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let cfg = { Ocolos_profiler.Perf.sample_period = 1000; pmi_overhead = 0.0 } in
  let session = Ocolos_profiler.Perf.start ~cfg proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  (* 2 threads x 50k cycles / 1000-cycle period = ~100 PMIs. *)
  let n = List.length samples in
  Alcotest.(check bool) (Printf.sprintf "roughly period-spaced (%d)" n) true
    (n > 50 && n < 160)

let test_profile_merge () =
  let p1 = Ocolos_profiler.Profile.create () in
  let p2 = Ocolos_profiler.Profile.create () in
  Ocolos_profiler.Profile.add_branch p1 ~from_addr:1 ~to_addr:2 3;
  Ocolos_profiler.Profile.add_branch p2 ~from_addr:1 ~to_addr:2 4;
  Ocolos_profiler.Profile.add_branch p2 ~from_addr:5 ~to_addr:6 1;
  Ocolos_profiler.Profile.add_call p1 ~caller:0 ~callee:1 2;
  let m = Ocolos_profiler.Profile.merge [ p1; p2 ] in
  Alcotest.(check int) "summed" 7 (Ocolos_profiler.Profile.branch_count m (1, 2));
  Alcotest.(check int) "kept" 1 (Ocolos_profiler.Profile.branch_count m (5, 6));
  Alcotest.(check int) "calls kept" 2 (Ocolos_profiler.Profile.call_count m (0, 1));
  Alcotest.(check int) "records summed" (p1.Ocolos_profiler.Profile.total_records
    + p2.Ocolos_profiler.Profile.total_records) m.Ocolos_profiler.Profile.total_records

let test_perf2bolt_against_ground_truth () =
  (* Profile a run while independently counting every taken branch with a
     second hook-level census; perf2bolt's aggregate must be a subsample
     concentrated on the same edges. *)
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let census : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let session = Ocolos_profiler.Perf.start proc in
  (* Chain a second observer after perf's. *)
  let perf_hook = proc.Ocolos_proc.Proc.hooks.on_taken_branch in
  proc.Ocolos_proc.Proc.hooks.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ->
        (match Hashtbl.find_opt census (from_addr, to_addr) with
        | Some v -> Hashtbl.replace census (from_addr, to_addr) (v + 1)
        | None -> Hashtbl.add census (from_addr, to_addr) 1);
        match perf_hook with Some f -> f ~tid ~from_addr ~to_addr ~kind | None -> ());
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  proc.Ocolos_proc.Proc.hooks.on_taken_branch <- perf_hook;
  let samples = Ocolos_profiler.Perf.stop session in
  let profile = Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary samples in
  (* Every profiled edge must exist in the census. *)
  Hashtbl.iter
    (fun key count ->
      Alcotest.(check bool) "edge is real" true (Hashtbl.mem census key);
      Alcotest.(check bool) "subsample" true (count <= Hashtbl.find census key))
    profile.Ocolos_profiler.Profile.branches;
  (* Heavily-executed edges should be captured. *)
  let hot_edges =
    Hashtbl.fold (fun k v acc -> if v > 500 then k :: acc else acc) census []
  in
  let captured =
    List.filter (fun k -> Ocolos_profiler.Profile.branch_count profile k > 0) hot_edges
  in
  Alcotest.(check bool) "most hot edges captured" true
    (List.length captured * 10 >= List.length hot_edges * 8)

let test_perf2bolt_call_edges () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  let profile = Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary samples in
  Alcotest.(check bool) "call graph non-empty" true
    (Hashtbl.length profile.Ocolos_profiler.Profile.calls > 0);
  (* main calls the parser on every transaction: that edge must be seen. *)
  (match w.Workload.gen.Gen.parser_fid with
  | Some pf ->
    Alcotest.(check bool) "main->parser edge" true
      (Ocolos_profiler.Profile.call_count profile (w.Workload.gen.Gen.main_fid, pf) > 0)
  | None -> ())

let test_topdown_check () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let before = Ocolos_proc.Proc.total_counters proc in
  Ocolos_proc.Proc.run ~cycle_limit:100_000.0 proc;
  let after = Ocolos_proc.Proc.total_counters proc in
  let v = Ocolos_profiler.Topdown_check.analyze ~before ~after () in
  let fe, ret = Ocolos_profiler.Topdown_check.features v in
  Alcotest.(check bool) "features in range" true
    (fe >= 0.0 && fe <= 1.0 && ret >= 0.0 && ret <= 1.0);
  Alcotest.(check bool) "interval instrs positive" true
    (v.Ocolos_profiler.Topdown_check.interval.Ocolos_uarch.Counters.instructions > 0)

let suite =
  [ Alcotest.test_case "lbr ring" `Quick test_lbr_ring;
    Alcotest.test_case "lbr wraps" `Quick test_lbr_wraps_at_capacity;
    Alcotest.test_case "perf session collects" `Quick test_perf_session_collects;
    Alcotest.test_case "perf sampling period" `Quick test_perf_sampling_period;
    Alcotest.test_case "profile merge" `Quick test_profile_merge;
    Alcotest.test_case "perf2bolt vs ground truth" `Quick test_perf2bolt_against_ground_truth;
    Alcotest.test_case "perf2bolt call edges" `Quick test_perf2bolt_call_edges;
    Alcotest.test_case "topdown check" `Quick test_topdown_check ]
