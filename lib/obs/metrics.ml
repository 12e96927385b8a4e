(* Metrics registry with deterministic exporters (see metrics.mli). *)

type counter = { mutable c_v : int }
type gauge = { mutable g_v : float }

type histogram = {
  h_buckets : float array; (* upper bounds, strictly increasing *)
  h_counts : int array; (* per-bucket counts; last slot is +Inf *)
  mutable h_sum : float;
  mutable h_n : int;
}

type metric = C of counter | G of gauge | H of histogram

type entry = {
  e_name : string;
  e_labels : (string * string) list; (* sorted by key *)
  e_help : string option;
  e_metric : metric;
}

type registry = { tbl : (string, entry) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let key name labels = name ^ render_labels labels

let register r ?(labels = []) ?help name make check =
  let labels = List.sort compare labels in
  let k = key name labels in
  match Hashtbl.find_opt r.tbl k with
  | Some e -> check e.e_metric
  | None ->
    let m = make () in
    Hashtbl.replace r.tbl k { e_name = name; e_labels = labels; e_help = help; e_metric = m };
    check m

let kind_error name = invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name)

let counter r ?labels ?help name =
  register r ?labels ?help name
    (fun () -> C { c_v = 0 })
    (function C c -> c | G _ | H _ -> kind_error name)

let inc c n = c.c_v <- c.c_v + n
let counter_value c = c.c_v

let gauge r ?labels ?help name =
  register r ?labels ?help name
    (fun () -> G { g_v = 0.0 })
    (function G g -> g | C _ | H _ -> kind_error name)

let set g v = g.g_v <- v
let gauge_value g = g.g_v

let histogram r ?labels ?help ~buckets name =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Metrics.histogram: buckets must be strictly increasing"
  done;
  register r ?labels ?help name
    (fun () ->
      H { h_buckets = Array.copy buckets; h_counts = Array.make (n + 1) 0; h_sum = 0.0; h_n = 0 })
    (function
      | H h ->
        if h.h_buckets <> buckets then
          invalid_arg (Printf.sprintf "Metrics: histogram %s re-registered with other buckets" name)
        else h
      | C _ | G _ -> kind_error name)

let observe h v =
  let n = Array.length h.h_buckets in
  let rec slot i = if i >= n then n else if v <= h.h_buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_n <- h.h_n + 1

let hist_count h = h.h_n
let hist_sum h = h.h_sum

let hist_buckets h =
  Array.init
    (Array.length h.h_counts)
    (fun i ->
      let bound = if i < Array.length h.h_buckets then h.h_buckets.(i) else Float.infinity in
      (bound, h.h_counts.(i)))

let pause_buckets =
  [| 1e-4; 2e-4; 5e-4; 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0 |]

let ipc_buckets = [| 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 1.75; 2.0; 2.5; 3.0; 4.0 |]

let latency_buckets =
  [| 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0 |]

let queue_depth_buckets = [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

(* ---- export ---- *)

let sorted_entries r =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) r.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let to_prometheus r =
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun e ->
      if e.e_name <> !last_family then begin
        last_family := e.e_name;
        (match e.e_help with
        | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" e.e_name h)
        | None -> ());
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" e.e_name (kind_name e.e_metric))
      end;
      let labels = render_labels e.e_labels in
      match e.e_metric with
      | C c -> Buffer.add_string buf (Printf.sprintf "%s%s %d\n" e.e_name labels c.c_v)
      | G g -> Buffer.add_string buf (Printf.sprintf "%s%s %s\n" e.e_name labels (Json.number g.g_v))
      | H h ->
        let cumulative = ref 0 in
        Array.iter
          (fun (bound, count) ->
            cumulative := !cumulative + count;
            let le = if bound = Float.infinity then "+Inf" else Json.number bound in
            let labels = render_labels (List.sort compare (("le", le) :: e.e_labels)) in
            Buffer.add_string buf (Printf.sprintf "%s_bucket%s %d\n" e.e_name labels !cumulative))
          (hist_buckets h);
        Buffer.add_string buf (Printf.sprintf "%s_sum%s %s\n" e.e_name labels (Json.number h.h_sum));
        Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" e.e_name labels h.h_n))
    (sorted_entries r);
  Buffer.contents buf

let to_json r =
  let metric_json e =
    let base =
      [ ("name", Json.String e.e_name);
        ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.e_labels));
        ("type", Json.String (kind_name e.e_metric)) ]
    in
    match e.e_metric with
    | C c -> Json.Obj (base @ [ ("value", Json.Int c.c_v) ])
    | G g -> Json.Obj (base @ [ ("value", Json.Float g.g_v) ])
    | H h ->
      let buckets =
        Array.to_list (hist_buckets h)
        |> List.map (fun (bound, count) ->
               Json.Obj
                 [ ( "le",
                     if bound = Float.infinity then Json.String "+Inf" else Json.Float bound );
                   ("count", Json.Int count) ])
      in
      Json.Obj
        (base
        @ [ ("buckets", Json.List buckets);
            ("sum", Json.Float h.h_sum);
            ("count", Json.Int h.h_n) ])
  in
  Json.Obj [ ("metrics", Json.List (List.map metric_json (sorted_entries r))) ]

(* ---- ambient registry ---- *)

let current : registry option ref = ref None

let with_installed r f =
  let prev = !current in
  current := Some r;
  Fun.protect ~finally:(fun () -> current := prev) f

let count ?labels name n =
  match !current with Some r -> inc (counter r ?labels name) n | None -> ()

let record ?labels name v =
  match !current with Some r -> set (gauge r ?labels name) v | None -> ()

let sample ?labels ~buckets name v =
  match !current with Some r -> observe (histogram r ?labels ~buckets name) v | None -> ()
