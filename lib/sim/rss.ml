(* Maximum resident set size model (paper Table I).

   Accounts for the mapped text image, initialized globals and v-tables,
   per-thread heap slices actually touched, and a fixed allocator/runtime
   baseline. OCOLOS adds its transient working set: the injected optimized
   text, the LBR profile buffers, and BOLT's in-memory IR. *)

let baseline_bytes = 4 * 1024 * 1024
let word_bytes = 8

let data_bytes (b : Ocolos_binary.Binary.t) =
  (b.Ocolos_binary.Binary.globals_words * word_bytes)
  + Array.fold_left
      (fun acc vt -> acc + (Array.length vt.Ocolos_binary.Binary.vt_entries * word_bytes))
      0 b.Ocolos_binary.Binary.vtables

(* Thread-private bytes actually touched: scratch words plus the scan
   region when the input scans. *)
let thread_bytes (input : Ocolos_workloads.Input.t) =
  let scan = input.Ocolos_workloads.Input.scan_len * Ocolos_workloads.Gen.scan_stride_words in
  (Ocolos_workloads.Gen.tls_scan_base + scan) * word_bytes

let of_binary ?(nthreads = 4) (b : Ocolos_binary.Binary.t) ~input =
  baseline_bytes + Ocolos_binary.Binary.text_bytes b + data_bytes b
  + (nthreads * thread_bytes input)

(* OCOLOS's peak: the running process plus injected code, profile buffers
   (16 bytes per LBR record), BOLT's IR (~48 bytes per instruction), and the
   transient OSR overhead [resident_extra] — compensation stubs, retired
   text kept in place and inherited jump-table words still mapped while
   migrated frames drain. The old accounting missed that last term and undercounted the
   Table I peak during the drain window. *)
let ocolos ?(nthreads = 4) ?(resident_extra = 0) (b : Ocolos_binary.Binary.t) ~input
    ~(stats : Ocolos_core.Ocolos.replacement_stats) ~profile_records ~bolt_work_instrs =
  of_binary ~nthreads b ~input
  + stats.Ocolos_core.Ocolos.code_bytes_injected
  + resident_extra
  + (profile_records * 16) + (bolt_work_instrs * 48)

let mib bytes = float_of_int bytes /. 1048576.0
