(* Fig. 8: front-end microarchitectural events per kilo-instruction for
   every MySQL input, under the original binary, OCOLOS, and offline BOLT:
   L1i MPKI, iTLB MPKI, taken branches PKI, mispredicted branches PKI.
   Inputs are sorted by OCOLOS speedup (as in the paper). *)

open Ocolos_workloads
open Ocolos_util
open Ocolos_uarch
module Measure = Ocolos_sim.Measure

let run () =
  Table.section "Fig. 8 — front-end events per kilo-instruction (MySQL inputs)";
  let w = Lazy.force Common.mysql in
  let per_input =
    List.map
      (fun input ->
        Common.progress "fig8: %s" input.Input.name;
        let orig = Common.steady_orig w input in
        let oco = Common.ocolos w input in
        let bolt =
          Common.steady w
            ~binary:(Common.bolt_oracle w input) ~variant:"bolt" input
        in
        let speedup = oco.Measure.post.Measure.tps /. orig.Measure.tps in
        (input.Input.name, speedup, orig.Measure.counters,
         oco.Measure.post.Measure.counters, bolt.Measure.counters))
      w.Workload.inputs
  in
  let sorted =
    List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare b a) per_input
  in
  let metric name f =
    Table.section (Printf.sprintf "Fig. 8 metric: %s" name);
    Table.print
      ~headers:[| "input (sorted by speedup)"; "original"; "OCOLOS"; "BOLT" |]
      (List.map
         (fun (n, _, o, c, b) ->
           [| n; Table.fmt_f ~digits:2 (f o); Table.fmt_f ~digits:2 (f c);
              Table.fmt_f ~digits:2 (f b) |])
         sorted)
  in
  metric "L1i MPKI" Counters.l1i_mpki;
  metric "iTLB MPKI" Counters.itlb_mpki;
  metric "taken branches / kilo-instruction" Counters.taken_branches_pki;
  metric "branch mispredictions / kilo-instruction" Counters.mispredicts_pki;
  metric "BTB misses / kilo-instruction" Counters.btb_misses_pki
