(* Table I: benchmark characterization — code-size metrics, per-replacement
   statistics averaged across inputs, and the max-RSS model for the
   original / BOLT / OCOLOS configurations. *)

open Ocolos_workloads
open Ocolos_util
module Measure = Ocolos_sim.Measure

let rep_input (w : Workload.t) =
  (* The input Table I uses for memory numbers, per the paper. *)
  let name =
    match w.Workload.name with
    | "mysql" -> "read_only"
    | "mongodb" -> "read_update"
    | "memcached" -> "set10_get90"
    | "verilator" -> "dhrystone"
    | _ -> (List.hd w.Workload.inputs).Input.name
  in
  Workload.find_input w name

let run () =
  Table.section "Table I — benchmark characterization";
  let apps = Common.all_apps () in
  let stats_of (w : Workload.t) =
    let runs =
      List.map
        (fun input ->
          Common.progress "tab1: %s/%s" w.Workload.name input.Input.name;
          Common.ocolos w input)
        w.Workload.inputs
    in
    let avg f = Stats.mean (Array.of_list (List.map f runs)) in
    let input = rep_input w in
    let orig_rss =
      Ocolos_sim.Rss.of_binary ~nthreads:w.Workload.nthreads w.Workload.binary ~input
    in
    let bolt_rss =
      Ocolos_sim.Rss.of_binary ~nthreads:w.Workload.nthreads
        (Common.bolt_oracle w input) ~input
    in
    let oco = Common.ocolos w input in
    let ocolos_rss =
      Ocolos_sim.Rss.ocolos ~nthreads:w.Workload.nthreads
        ~resident_extra:oco.Measure.resident_extra_bytes w.Workload.binary ~input
        ~stats:oco.Measure.stats
        ~profile_records:oco.Measure.profile.Ocolos_profiler.Profile.total_records
          (* BOLT's working set scales with the volume of code it rewrote *)
        ~bolt_work_instrs:(oco.Measure.stats.Ocolos_core.Ocolos.code_bytes_injected / 2)
    in
    (runs, avg, orig_rss, bolt_rss, ocolos_rss)
  in
  let data = List.map (fun w -> (w, stats_of w)) apps in
  let row name f = Array.of_list (name :: List.map (fun (w, d) -> f w d) data) in
  let headers = Array.of_list ("" :: List.map (fun (w, _) -> w.Workload.name) data) in
  Table.print ~headers
    [ row "functions" (fun w _ ->
          Table.fmt_int (Array.length w.Workload.binary.Ocolos_binary.Binary.symbols));
      row "v-tables" (fun w _ ->
          Table.fmt_int (Array.length w.Workload.binary.Ocolos_binary.Binary.vtables));
      row ".text (KiB)" (fun w _ ->
          Table.fmt_f ~digits:1
            (float_of_int (Ocolos_binary.Binary.text_bytes w.Workload.binary) /. 1024.0));
      row "avg funcs reordered" (fun _ (_, avg, _, _, _) ->
          Table.fmt_f ~digits:1
            (avg (fun r -> float_of_int r.Measure.stats.Ocolos_core.Ocolos.funcs_optimized)));
      row "avg funcs on stack" (fun _ (_, avg, _, _, _) ->
          Table.fmt_f ~digits:1
            (avg (fun r -> float_of_int r.Measure.stats.Ocolos_core.Ocolos.stack_live_funcs)));
      row "avg call sites changed" (fun _ (_, avg, _, _, _) ->
          Table.fmt_f ~digits:1
            (avg (fun r -> float_of_int r.Measure.stats.Ocolos_core.Ocolos.call_sites_patched)));
      row "avg vtable entries patched" (fun _ (_, avg, _, _, _) ->
          Table.fmt_f ~digits:1
            (avg (fun r ->
                 float_of_int r.Measure.stats.Ocolos_core.Ocolos.vtable_entries_patched)));
      row "max RSS original (MiB)" (fun _ (_, _, o, _, _) ->
          Table.fmt_f ~digits:2 (Ocolos_sim.Rss.mib o));
      row "max RSS BOLT (MiB)" (fun _ (_, _, _, b, _) ->
          Table.fmt_f ~digits:2 (Ocolos_sim.Rss.mib b));
      row "max RSS OCOLOS (MiB)" (fun _ (_, _, _, _, oc) ->
          Table.fmt_f ~digits:2 (Ocolos_sim.Rss.mib oc)) ];
  print_newline ()
