type t = {
  scheme : Scheme.t;
  order : int array;
}

let scheme t = t.scheme
let instance t = Scheme.instance t.scheme
let rate t = Scheme.rate t.scheme
let graph t = Scheme.graph t.scheme
let order t = t.order

let of_word inst ~rate word =
  { scheme = Low_degree.build inst ~rate word; order = Word.to_order word inst }

(* The default target of [build]: the bisection optimum [t] backed off by
   4 eps, with the witness re-derived at the backed-off rate so word and
   rate are mutually consistent ([witness ()], the word at [t], where the
   backed-off rate is refused). *)
let backed_off inst t ~witness =
  let rate = t *. (1. -. (4. *. Util.eps)) in
  (rate, match Greedy.test inst ~rate with Some w -> w | None -> witness ())

let build ?rate inst =
  match rate with
  | None ->
    let t, w = Greedy.optimal_acyclic inst in
    let rate, word = backed_off inst t ~witness:(fun () -> w) in
    of_word inst ~rate word
  | Some rate -> begin
    match Greedy.test inst ~rate with
    | None -> invalid_arg "Overlay.build: rate is not feasible"
    | Some word -> of_word inst ~rate word
  end

let optimal_rate inst =
  let t = Greedy.optimum inst in
  (* At t = 0 [build] fails in [Greedy.test], which rejects rate 0. *)
  if t <= 0. then None
  else begin
    (* [optimum] only settles on rates [Greedy.test] accepts, so the
       witness at [t] exists. *)
    let rate, word =
      backed_off inst t ~witness:(fun () -> Option.get (Greedy.test inst ~rate:t))
    in
    if Low_degree.constructible inst ~rate word then Some rate else None
  end

let verified_rate t =
  if Scheme.size t.scheme <= 1 then infinity else Scheme.throughput t.scheme

let positions t =
  let pos = Array.make (Array.length t.order) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) t.order;
  pos

let well_formed t =
  let size = Scheme.size t.scheme in
  Array.length t.order = size
  && t.order.(0) = 0
  && begin
    let seen = Array.make size false in
    Array.for_all
      (fun v ->
        v >= 0 && v < size
        &&
        if seen.(v) then false
        else begin
          seen.(v) <- true;
          true
        end)
      t.order
  end
  && begin
    let pos = positions t in
    Flowgraph.Graph.fold_edges
      (fun ~src ~dst _w ok -> ok && pos.(src) < pos.(dst))
      (Scheme.graph t.scheme) true
  end
  &&
  (* Structural validity is a [Scheme.create] invariant; the memoized
     report re-certifies it for free (and flags cap violations the same
     tolerant way the legacy [Verify.valid] check did). *)
  let rep = Scheme.report t.scheme in
  rep.Verify.bandwidth_ok && rep.Verify.firewall_ok && rep.Verify.bin_ok

let edge_changed ~before ~after =
  if before > 0. then
    Float.abs (before -. after) > 1e-9 *. Float.max 1. (Float.max before after)
  else after > 0.

let edge_distance a b =
  let count = ref 0 in
  Flowgraph.Graph.iter_edges
    (fun ~src ~dst w ->
      if edge_changed ~before:w ~after:(Flowgraph.Graph.edge_weight b ~src ~dst)
      then incr count)
    a;
  (* Edges present only in b. *)
  Flowgraph.Graph.iter_edges
    (fun ~src ~dst _w ->
      if Flowgraph.Graph.edge_weight a ~src ~dst = 0. then incr count)
    b;
  !count

let of_scheme scheme ~order =
  if Array.length order <> Scheme.size scheme then
    invalid_arg "Overlay.of_scheme: order length mismatch";
  if order.(0) <> 0 then invalid_arg "Overlay.of_scheme: order must start at the source";
  { scheme; order = Array.copy order }
