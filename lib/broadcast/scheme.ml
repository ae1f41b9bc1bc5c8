open Platform
module G = Flowgraph.Graph
module Csr = Flowgraph.Csr
module Json = Flowgraph.Json

type algorithm =
  | Algorithm1
  | Theorem41
  | Min_depth
  | Theorem52
  | Repaired of algorithm
  | Imported

type provenance = {
  algorithm : algorithm;
  rate : float;
  degree_bound : int option;
}

type t = {
  instance : Instance.t;
  snapshot : Csr.t;
  provenance : provenance;
  mutable graph : G.t option;
  mutable report : Verify.report option;
}

let create ?(eps = Util.eps) ~provenance inst g =
  let size = Instance.size inst in
  if G.node_count g <> size then
    invalid_arg "Scheme.create: graph node count does not match the instance";
  if not (Instance.sorted inst) then
    invalid_arg "Scheme.create: instance must be sorted";
  if not (Float.is_finite provenance.rate && provenance.rate > 0.) then
    invalid_arg "Scheme.create: target rate must be finite and positive";
  (* Freeze first: the immutable snapshot both decouples the artifact from
     later caller mutations (no defensive hashtable copy needed) and serves
     the invariant checks below from its cached weight arrays. Every
     consumer — verify, metrics, depth — reads this same snapshot. *)
  let snap = Csr.of_graph g in
  let b = inst.Instance.bandwidth in
  for i = 0 to size - 1 do
    if not (Util.fle ~eps (Csr.out_weight snap i) b.(i)) then
      invalid_arg
        (Printf.sprintf "Scheme.create: node %d exceeds its bandwidth (%g > %g)"
           i (Csr.out_weight snap i) b.(i))
  done;
  Csr.iter_edges
    (fun ~src ~dst _w ->
      if Instance.is_guarded inst src && Instance.is_guarded inst dst then
        invalid_arg
          (Printf.sprintf
             "Scheme.create: guarded-to-guarded edge C%d -> C%d violates the \
              firewall constraint"
             src dst))
    snap;
  (* Incoming caps are deliberately NOT an invariant: the paper's
     constructions optimize against upload bandwidth only, so a scheme can
     legitimately overrun a last-mile download cap — that shows up as
     [bin_ok = false] in the memoized report, like in [Verify.check]. *)
  { instance = inst; snapshot = snap; provenance; graph = None; report = None }

let is_identity map =
  let rec go i = i = Array.length map || (map.(i) = i && go (i + 1)) in
  go 0

let apply_delta ?(eps = Util.eps) ?node_map ~base ~provenance inst ~rows g =
  let size = Instance.size inst in
  let base_size = Instance.size base.instance in
  if G.node_count g <> size then
    invalid_arg "Scheme.apply_delta: graph node count does not match the instance";
  if not (Instance.sorted inst) then
    invalid_arg "Scheme.apply_delta: instance must be sorted";
  if not (Float.is_finite provenance.rate && provenance.rate > 0.) then
    invalid_arg "Scheme.apply_delta: target rate must be finite and positive";
  let edges =
    Array.map
      (fun r ->
        if r < 0 || r >= size then
          invalid_arg "Scheme.apply_delta: row out of range";
        G.out_edges g r
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
        |> Array.of_list)
      rows
  in
  let renumbered =
    match node_map with
    | Some map when Array.length map <> base_size || not (is_identity map) ->
      Some map
    | _ -> None
  in
  (* Re-freeze only the disturbed rows; everything else is blitted from
     the base snapshot, bit for bit — renumbered first when the event
     moved node ids. *)
  let snap =
    match renumbered with
    | None ->
      if size < base_size then
        invalid_arg "Scheme.apply_delta: instance may not shrink";
      Csr.patch_rows ~n:size base.snapshot ~rows ~edges
    | Some map ->
      let remapped =
        try Csr.remap ~n:size base.snapshot ~map
        with Invalid_argument msg -> invalid_arg ("Scheme.apply_delta: " ^ msg)
      in
      (* A node no survivor maps to is new: its row must be patched, as
         an appended row must be on the identity path. *)
      let covered = Array.make size false in
      Array.iter (fun v -> if v >= 0 then covered.(v) <- true) map;
      Array.iter (fun r -> covered.(r) <- true) rows;
      if Array.exists not covered then
        invalid_arg "Scheme.apply_delta: every new node must be patched";
      Csr.patch_rows remapped ~rows ~edges
  in
  (* Delta-scoped re-validation: the base artifact's constructor already
     certified the untouched rows, and the caller guarantees [rows]
     covers every node whose out-edges or bandwidth changed. *)
  (match Verify.row_violation ~eps inst snap ~rows with
  | Some msg -> invalid_arg ("Scheme.apply_delta: " ^ msg)
  | None -> ());
  { instance = inst; snapshot = snap; provenance; graph = None; report = None }

let instance s = s.instance

let graph s =
  (* Materialized from the frozen snapshot, so it carries the artifact's
     edge set whatever happened to the graph passed to [create]. The
     cached master is never handed out: callers get a fresh copy, so no
     caller-side mutation (a repair experiment editing the graph it was
     given, then re-reading the scheme) can ever desynchronize the
     mutable view from the frozen snapshot the verifiers read. *)
  let master =
    match s.graph with
    | Some g -> g
    | None ->
      let g = G.create (Csr.node_count s.snapshot) in
      Csr.iter_edges (fun ~src ~dst w -> G.add_edge g ~src ~dst w) s.snapshot;
      s.graph <- Some g;
      g
  in
  G.copy master

let provenance s = s.provenance
let rate s = s.provenance.rate
let size s = Instance.size s.instance
let edge_count s = Csr.edge_count s.snapshot
let snapshot s = s.snapshot

let report s =
  match s.report with
  | Some r -> r
  | None ->
    let r = Verify.check_csr s.instance s.snapshot in
    s.report <- Some r;
    r

let throughput s = (report s).Verify.throughput
let is_acyclic s = (report s).Verify.acyclic

let achieves_target s =
  let t = s.provenance.rate in
  (* Same relative slack as [Verify.achieves]: max-flow values are
     iterative float computations. *)
  throughput s >= t -. (1e-6 *. Float.max 1. (Float.abs t))

let equal a b =
  Instance.equal a.instance b.instance
  && G.equal ~eps:0. (graph a) (graph b)
  && a.provenance = b.provenance

let rec algorithm_name = function
  | Algorithm1 -> "algorithm1"
  | Theorem41 -> "theorem41"
  | Min_depth -> "min-depth"
  | Theorem52 -> "theorem52"
  | Repaired inner -> Printf.sprintf "repaired(%s)" (algorithm_name inner)
  | Imported -> "imported"

let rec algorithm_of_name name =
  match name with
  | "algorithm1" -> Ok Algorithm1
  | "theorem41" -> Ok Theorem41
  | "min-depth" -> Ok Min_depth
  | "theorem52" -> Ok Theorem52
  | "imported" -> Ok Imported
  | _ ->
    let n = String.length name in
    if n > 10 && String.sub name 0 9 = "repaired(" && name.[n - 1] = ')' then
      match algorithm_of_name (String.sub name 9 (n - 10)) with
      | Ok inner -> Ok (Repaired inner)
      | Error _ as e -> e
    else Error (Printf.sprintf "unknown algorithm %S" name)

let format_version = 1

(* 17 significant digits round-trip every finite float exactly, so a
   reloaded scheme carries bit-identical rates and bandwidths. *)
let float_str v = Printf.sprintf "%.17g" v

let to_json s =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\"format\": \"bmp-scheme\", \"version\": %d, " format_version;
  p "\"provenance\": {\"algorithm\": \"%s\", \"rate\": %s, \"degree_bound\": %s}, "
    (Json.escape (algorithm_name s.provenance.algorithm))
    (float_str s.provenance.rate)
    (match s.provenance.degree_bound with
    | None -> "null"
    | Some d -> string_of_int d);
  let float_array a =
    "[" ^ String.concat ", " (List.map float_str (Array.to_list a)) ^ "]"
  in
  p "\"instance\": {\"n\": %d, \"m\": %d, \"bandwidth\": %s, \"bin\": %s}, "
    s.instance.Instance.n s.instance.Instance.m
    (float_array s.instance.Instance.bandwidth)
    (match s.instance.Instance.bin with
    | None -> "null"
    | Some caps -> float_array caps);
  p "\"graph\": %s}" (Flowgraph.Export.to_json ~precision:17 (graph s));
  Buffer.contents buf

let ( let* ) = Result.bind

let no_unknown_fields ctx allowed v =
  match v with
  | Json.Obj fields ->
    (match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields with
    | Some (k, _) -> Error (Printf.sprintf "%s: unknown field %S" ctx k)
    | None -> Ok ())
  | _ -> Error (Printf.sprintf "%s: expected an object" ctx)

let field ctx k v =
  match Json.member k v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: missing field %S" ctx k)

let float_array_of ctx v =
  match v with
  | Json.Arr l ->
    let* values =
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          let* f =
            Result.map_error (fun e -> ctx ^ ": " ^ e) (Json.to_float x)
          in
          Ok (f :: acc))
        (Ok []) l
    in
    Ok (Array.of_list (List.rev values))
  | _ -> Error (ctx ^ ": expected an array of numbers")

let provenance_of_json v =
  let ctx = "provenance" in
  let* () = no_unknown_fields ctx [ "algorithm"; "rate"; "degree_bound" ] v in
  let* name = field ctx "algorithm" v in
  let* name = Result.map_error (fun e -> ctx ^ ": " ^ e) (Json.to_string_exn name) in
  let* algorithm =
    Result.map_error (fun e -> ctx ^ ": " ^ e) (algorithm_of_name name)
  in
  let* rate = field ctx "rate" v in
  let* rate = Result.map_error (fun e -> ctx ^ ": rate: " ^ e) (Json.to_float rate) in
  let* degree_bound =
    match Json.member "degree_bound" v with
    | None | Some Json.Null -> Ok None
    | Some d ->
      let* d =
        Result.map_error (fun e -> ctx ^ ": degree_bound: " ^ e) (Json.to_int d)
      in
      Ok (Some d)
  in
  Ok { algorithm; rate; degree_bound }

let instance_of_json v =
  let ctx = "instance" in
  let* () = no_unknown_fields ctx [ "n"; "m"; "bandwidth"; "bin" ] v in
  let* n = field ctx "n" v in
  let* n = Result.map_error (fun e -> ctx ^ ": n: " ^ e) (Json.to_int n) in
  let* m = field ctx "m" v in
  let* m = Result.map_error (fun e -> ctx ^ ": m: " ^ e) (Json.to_int m) in
  let* bandwidth = field ctx "bandwidth" v in
  let* bandwidth = float_array_of (ctx ^ ": bandwidth") bandwidth in
  let* bin =
    match Json.member "bin" v with
    | None | Some Json.Null -> Ok None
    | Some b ->
      let* caps = float_array_of (ctx ^ ": bin") b in
      Ok (Some caps)
  in
  match Instance.create ?bin ~bandwidth ~n ~m () with
  | inst -> Ok inst
  | exception Invalid_argument msg -> Error (ctx ^ ": " ^ msg)

let of_json text =
  let* v = Json.parse text in
  let ctx = "scheme" in
  let* () =
    no_unknown_fields ctx [ "format"; "version"; "provenance"; "instance"; "graph" ] v
  in
  let* fmt = field ctx "format" v in
  let* fmt = Result.map_error (fun e -> ctx ^ ": format: " ^ e) (Json.to_string_exn fmt) in
  let* () =
    if fmt = "bmp-scheme" then Ok ()
    else Error (Printf.sprintf "scheme: not a bmp-scheme file (format %S)" fmt)
  in
  let* version = field ctx "version" v in
  let* version =
    Result.map_error (fun e -> ctx ^ ": version: " ^ e) (Json.to_int version)
  in
  let* () =
    if version = format_version then Ok ()
    else
      Error
        (Printf.sprintf
           "scheme: unsupported format version %d (this library reads version %d)"
           version format_version)
  in
  let* prov_json = field ctx "provenance" v in
  let* provenance = provenance_of_json prov_json in
  let* inst_json = field ctx "instance" v in
  let* inst = instance_of_json inst_json in
  let* graph_json = field ctx "graph" v in
  let* g = Flowgraph.Export.graph_of_json_value graph_json in
  match create ~provenance inst g with
  | s -> Ok s
  | exception Invalid_argument msg -> Error msg

let pp fmt s =
  Format.fprintf fmt "scheme[%s, T = %g, %d nodes, %d edges]"
    (algorithm_name s.provenance.algorithm)
    s.provenance.rate (size s) (edge_count s)
