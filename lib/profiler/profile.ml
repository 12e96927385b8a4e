(* Aggregated control-flow profile, the output of perf2bolt and the input to
   BOLT: taken-branch edge counts, straight-line fallthrough ranges, and the
   weighted call graph. All addresses refer to the profiled binary. *)

type t = {
  branches : (int * int, int) Hashtbl.t; (* (site, target) -> taken count *)
  ranges : (int * int, int) Hashtbl.t; (* (start, end) straight-line run -> count *)
  calls : (int * int, int) Hashtbl.t; (* (caller fid, callee fid) -> count *)
  func_records : (int, int) Hashtbl.t; (* fid -> LBR records touching it *)
  mutable total_records : int;
}

let create () =
  { branches = Hashtbl.create 1024;
    ranges = Hashtbl.create 1024;
    calls = Hashtbl.create 256;
    func_records = Hashtbl.create 256;
    total_records = 0 }

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some v -> Hashtbl.replace tbl key (v + n)
  | None -> Hashtbl.add tbl key n

let add_branch t ~from_addr ~to_addr n =
  bump t.branches (from_addr, to_addr) n;
  t.total_records <- t.total_records + n

let add_range t ~start_addr ~end_addr n = bump t.ranges (start_addr, end_addr) n
let add_call t ~caller ~callee n = bump t.calls (caller, callee) n
let add_func_record t fid n = bump t.func_records fid n

let branch_count t key = match Hashtbl.find_opt t.branches key with Some v -> v | None -> 0
let call_count t key = match Hashtbl.find_opt t.calls key with Some v -> v | None -> 0

(* LBR records touching one function: BOLT's hot-function selection key. *)
let func_records t fid = match Hashtbl.find_opt t.func_records fid with Some v -> v | None -> 0

(* Merge profiles by summing counts: the paper's "all inputs" aggregate
   (Fig. 3 / Fig. 5 BOLT average-case configuration). *)
let merge profiles =
  let out = create () in
  List.iter
    (fun p ->
      Hashtbl.iter (fun k v -> bump out.branches k v) p.branches;
      Hashtbl.iter (fun k v -> bump out.ranges k v) p.ranges;
      Hashtbl.iter (fun k v -> bump out.calls k v) p.calls;
      Hashtbl.iter (fun k v -> bump out.func_records k v) p.func_records;
      out.total_records <- out.total_records + p.total_records)
    profiles;
  out

(* No taken branch recorded at all: nothing for BOLT to act on. *)
let is_empty t = Hashtbl.length t.branches = 0

let pp_summary fmt t =
  Fmt.pf fmt "profile: %d branch edges, %d ranges, %d call edges, %d records"
    (Hashtbl.length t.branches) (Hashtbl.length t.ranges) (Hashtbl.length t.calls)
    t.total_records
