(* Core front-end model parameters.

   Defaults resemble the paper's Broadwell Xeon E5-2620v4 testbed, with BTB
   and predictor capacities scaled in proportion to our scaled-down workload
   code footprints. *)

type t = {
  issue_width : int; (* retire slots per cycle *)
  line_bytes : int;
  l1i_bytes : int;
  l1i_ways : int;
  l1d_bytes : int;
  l1d_ways : int;
  l2_bytes : int;
  l2_ways : int;
  l3_bytes : int; (* per-core slice of the shared L3 *)
  l3_ways : int;
  page_bytes : int;
  itlb_entries : int;
  itlb_ways : int;
  btb_entries : int;
  btb_ways : int;
  gshare_bits : int;
  ras_depth : int;
  l2_latency : int; (* extra cycles for an L1 miss that hits L2 *)
  l3_latency : int; (* extra cycles for an L2 miss that hits L3 *)
  dram_latency : int; (* extra cycles for an L3 miss *)
  itlb_walk_latency : int;
  next_line_prefetch : bool; (* L1i next-line prefetcher: sequential code
                                hides its own fetch misses *)
  taken_bubble : int; (* fetch bubble per taken transfer *)
  btb_miss_penalty : int; (* fetch redirect on a taken transfer absent from BTB *)
  mispredict_penalty : int; (* pipeline flush *)
  dram_mlp : int; (* memory-level parallelism: data-miss latency is
                     overlapped by this factor (instruction fetches block) *)
  dram_base_interval : int; (* controller service interval for spread-out requests *)
  dram_burst_interval : int; (* service interval under bank conflicts *)
  dram_burst_window : int; (* demand-time gap below which requests conflict *)
}

let broadwell =
  { issue_width = 4;
    line_bytes = 64;
    l1i_bytes = 32 * 1024;
    l1i_ways = 8;
    l1d_bytes = 32 * 1024;
    l1d_ways = 8;
    l2_bytes = 256 * 1024;
    l2_ways = 8;
    l3_bytes = 1024 * 1024;
    l3_ways = 16;
    page_bytes = 4096;
    itlb_entries = 64;
    itlb_ways = 4;
    btb_entries = 1024;
    btb_ways = 4;
    gshare_bits = 16;
    ras_depth = 16;
    l2_latency = 12;
    l3_latency = 35;
    dram_latency = 150;
    itlb_walk_latency = 30;
    next_line_prefetch = true;
    taken_bubble = 1;
    btb_miss_penalty = 8;
    mispredict_penalty = 14;
    dram_mlp = 4;
    dram_base_interval = 100;
    dram_burst_interval = 310;
    dram_burst_window = 120 }

(* A tiny configuration for unit tests: easy to reason about capacities.
   Also the geometry of a thread copy's replay-only core ([Thread.copy]). *)
let tiny =
  { broadwell with
    l1i_bytes = 512;
    l1i_ways = 2;
    l1d_bytes = 512;
    l1d_ways = 2;
    l2_bytes = 2048;
    l2_ways = 2;
    l3_bytes = 8192;
    l3_ways = 2;
    itlb_entries = 4;
    itlb_ways = 4;
    btb_entries = 16;
    btb_ways = 2;
    gshare_bits = 6;
    ras_depth = 4 }
