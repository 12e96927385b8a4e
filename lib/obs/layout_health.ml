(* Per-version layout-health attribution (see layout_health.mli). *)

type sample = {
  s_instructions : int;
  s_cycles : float;
  s_l1i_misses : int;
  s_itlb_misses : int;
  s_btb_misses : int;
  s_taken_branches : int;
}

type func_counts = { fc_l1i : int; fc_itlb : int; fc_btb : int; fc_taken : int }

type rates = {
  r_windows : int;
  r_instructions : int;
  r_ipc : float;
  r_l1i_mpki : float;
  r_itlb_mpki : float;
  r_btb_mpki : float;
  r_taken_pki : float;
}

type signal = Ipc | L1i_mpki | Itlb_mpki | Btb_mpki | Taken_pki

let signals = [ Ipc; L1i_mpki; Itlb_mpki; Btb_mpki; Taken_pki ]

let signal_name = function
  | Ipc -> "ipc"
  | L1i_mpki -> "l1i_mpki"
  | Itlb_mpki -> "itlb_mpki"
  | Btb_mpki -> "btb_mpki"
  | Taken_pki -> "taken_pki"

let signal_value r = function
  | Ipc -> r.r_ipc
  | L1i_mpki -> r.r_l1i_mpki
  | Itlb_mpki -> r.r_itlb_mpki
  | Btb_mpki -> r.r_btb_mpki
  | Taken_pki -> r.r_taken_pki

type func_delta = {
  fd_fid : int;
  fd_name : string;
  fd_l1i : float;
  fd_itlb : float;
  fd_btb : float;
  fd_taken : float;
  fd_total : float;
}

type acc = {
  mutable a_windows : int;
  mutable a_instructions : int;
  mutable a_cycles : float;
  mutable a_l1i : int;
  mutable a_itlb : int;
  mutable a_btb : int;
  mutable a_taken : int;
}

type facc = {
  mutable fa_l1i : int;
  mutable fa_itlb : int;
  mutable fa_btb : int;
  mutable fa_taken : int;
}

type t = {
  by_version : (int, acc) Hashtbl.t;
  by_replica : (int * int, acc) Hashtbl.t; (* (replica, version) *)
  by_func : (int * int, facc) Hashtbl.t; (* (version, fid) *)
  func_names : (int, string) Hashtbl.t;
}

let create () =
  { by_version = Hashtbl.create 8;
    by_replica = Hashtbl.create 16;
    by_func = Hashtbl.create 64;
    func_names = Hashtbl.create 32 }

let fresh_acc () =
  { a_windows = 0; a_instructions = 0; a_cycles = 0.0; a_l1i = 0; a_itlb = 0;
    a_btb = 0; a_taken = 0 }

let acc_of tbl k =
  match Hashtbl.find_opt tbl k with
  | Some a -> a
  | None ->
    let a = fresh_acc () in
    Hashtbl.replace tbl k a;
    a

let fold_sample a s =
  a.a_windows <- a.a_windows + 1;
  a.a_instructions <- a.a_instructions + s.s_instructions;
  a.a_cycles <- a.a_cycles +. s.s_cycles;
  a.a_l1i <- a.a_l1i + s.s_l1i_misses;
  a.a_itlb <- a.a_itlb + s.s_itlb_misses;
  a.a_btb <- a.a_btb + s.s_btb_misses;
  a.a_taken <- a.a_taken + s.s_taken_branches

let record_window t ?replica ~version s =
  fold_sample (acc_of t.by_version version) s;
  match replica with
  | None -> ()
  | Some r -> fold_sample (acc_of t.by_replica (r, version)) s

let record_func_window t ~version ~fid ~name fc =
  if not (Hashtbl.mem t.func_names fid) then Hashtbl.replace t.func_names fid name;
  let fa =
    match Hashtbl.find_opt t.by_func (version, fid) with
    | Some fa -> fa
    | None ->
      let fa = { fa_l1i = 0; fa_itlb = 0; fa_btb = 0; fa_taken = 0 } in
      Hashtbl.replace t.by_func (version, fid) fa;
      fa
  in
  fa.fa_l1i <- fa.fa_l1i + fc.fc_l1i;
  fa.fa_itlb <- fa.fa_itlb + fc.fc_itlb;
  fa.fa_btb <- fa.fa_btb + fc.fc_btb;
  fa.fa_taken <- fa.fa_taken + fc.fc_taken

let versions t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.by_version [] |> List.sort_uniq compare

let replicas t =
  Hashtbl.fold (fun (r, _) _ acc -> r :: acc) t.by_replica [] |> List.sort_uniq compare

let rates_of_acc a =
  let per_kilo n =
    if a.a_instructions = 0 then 0.0
    else float_of_int n *. 1000.0 /. float_of_int a.a_instructions
  in
  { r_windows = a.a_windows;
    r_instructions = a.a_instructions;
    r_ipc = (if a.a_cycles <= 0.0 then 0.0 else float_of_int a.a_instructions /. a.a_cycles);
    r_l1i_mpki = per_kilo a.a_l1i;
    r_itlb_mpki = per_kilo a.a_itlb;
    r_btb_mpki = per_kilo a.a_btb;
    r_taken_pki = per_kilo a.a_taken }

let rates t v = Option.map rates_of_acc (Hashtbl.find_opt t.by_version v)

let replica_rates t ~replica ~version =
  Option.map rates_of_acc (Hashtbl.find_opt t.by_replica (replica, version))

(* A function's contribution to version [v]'s per-kilo-instruction rates:
   its event counts over the version window's total instructions. *)
let func_contrib t ~version ~fid =
  let instructions =
    match Hashtbl.find_opt t.by_version version with
    | Some a -> a.a_instructions
    | None -> 0
  in
  let pk n =
    if instructions = 0 then 0.0 else float_of_int n *. 1000.0 /. float_of_int instructions
  in
  match Hashtbl.find_opt t.by_func (version, fid) with
  | None -> (0.0, 0.0, 0.0, 0.0)
  | Some fa -> (pk fa.fa_l1i, pk fa.fa_itlb, pk fa.fa_btb, pk fa.fa_taken)

let func_name t fid =
  match Hashtbl.find_opt t.func_names fid with
  | Some n -> n
  | None -> Printf.sprintf "fid%d" fid

let fids_of_version t v =
  Hashtbl.fold (fun (v', fid) _ acc -> if v' = v then fid :: acc else acc) t.by_func []

let delta_rows t ~from_version ~to_version =
  let fids =
    List.sort_uniq compare (fids_of_version t from_version @ fids_of_version t to_version)
  in
  List.map
    (fun fid ->
      let l1i0, itlb0, btb0, taken0 = func_contrib t ~version:from_version ~fid in
      let l1i1, itlb1, btb1, taken1 = func_contrib t ~version:to_version ~fid in
      let dl1i = l1i1 -. l1i0 and ditlb = itlb1 -. itlb0 in
      let dbtb = btb1 -. btb0 and dtaken = taken1 -. taken0 in
      { fd_fid = fid;
        fd_name = func_name t fid;
        fd_l1i = dl1i;
        fd_itlb = ditlb;
        fd_btb = dbtb;
        fd_taken = dtaken;
        fd_total = dl1i +. ditlb +. dbtb +. dtaken })
    fids

let by_total_desc a b =
  match compare b.fd_total a.fd_total with 0 -> compare a.fd_fid b.fd_fid | c -> c

let func_rows t ~version =
  (* Deltas against an absent version are the absolute contributions. *)
  delta_rows t ~from_version:min_int ~to_version:version |> List.sort by_total_desc

let regressions t ~from_version ~to_version =
  delta_rows t ~from_version ~to_version |> List.sort by_total_desc

let export_metrics t =
  List.iter
    (fun v ->
      let r = Option.get (rates t v) in
      let labels = [ ("version", string_of_int v) ] in
      Metrics.record ~labels "ocolos_layout_windows" (float_of_int r.r_windows);
      Metrics.record ~labels "ocolos_layout_instructions" (float_of_int r.r_instructions);
      List.iter
        (fun s ->
          Metrics.record ~labels ("ocolos_layout_" ^ signal_name s) (signal_value r s))
        signals;
      List.iter
        (fun fd ->
          let labels = ("function", fd.fd_name) :: labels in
          Metrics.record ~labels "ocolos_layout_func_l1i_pki" fd.fd_l1i;
          Metrics.record ~labels "ocolos_layout_func_itlb_pki" fd.fd_itlb;
          Metrics.record ~labels "ocolos_layout_func_btb_pki" fd.fd_btb;
          Metrics.record ~labels "ocolos_layout_func_taken_pki" fd.fd_taken)
        (func_rows t ~version:v))
    (versions t)

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-8s %8s %14s %8s %9s %10s %9s %10s\n" "version" "windows"
       "instructions" "ipc" "l1i_mpki" "itlb_mpki" "btb_mpki" "taken_pki");
  List.iter
    (fun v ->
      let r = Option.get (rates t v) in
      Buffer.add_string b
        (Printf.sprintf "C%-7d %8d %14d %8s %9s %10s %9s %10s\n" v r.r_windows
           r.r_instructions (Json.number r.r_ipc) (Json.number r.r_l1i_mpki)
           (Json.number r.r_itlb_mpki) (Json.number r.r_btb_mpki)
           (Json.number r.r_taken_pki)))
    (versions t);
  Buffer.contents b

let delta_table t ~from_version ~to_version =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-10s %10s %10s %10s\n" "signal"
       (Printf.sprintf "C%d" from_version)
       (Printf.sprintf "C%d" to_version)
       "delta");
  (match (rates t from_version, rates t to_version) with
  | Some r0, Some r1 ->
    List.iter
      (fun s ->
        let v0 = signal_value r0 s and v1 = signal_value r1 s in
        Buffer.add_string b
          (Printf.sprintf "%-10s %10s %10s %10s\n" (signal_name s) (Json.number v0)
             (Json.number v1)
             (Json.number (v1 -. v0))))
      signals
  | _, _ ->
    Buffer.add_string b
      (Printf.sprintf "no data for C%d vs C%d\n" from_version to_version));
  Buffer.contents b
