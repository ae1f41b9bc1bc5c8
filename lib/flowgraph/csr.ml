(* Two passes over the graph: count degrees, dump edges, then sort a
   permutation by (src, dst) to make the snapshot canonical regardless of
   hashtable iteration order. The predecessor view is filled by walking
   the sorted edges once, which leaves every pred row sorted by source
   for free. *)

type t = {
  n : int;
  m : int;
  row_off : int array;
  col : int array;
  w : float array;
  pred_off : int array;
  pred_src : int array;
  pred_edge : int array;
  out_wt : float array;
  in_wt : float array;
}

let node_count t = t.n
let edge_count t = t.m
let out_degree t u = t.row_off.(u + 1) - t.row_off.(u)
let in_degree t v = t.pred_off.(v + 1) - t.pred_off.(v)
let out_weight t u = t.out_wt.(u)
let in_weight t v = t.in_wt.(v)

(* Shared tail of [of_graph] and [patch_rows]: given sorted successor
   arrays, derive the predecessor view and the canonical weight sums. The
   cursor fill walks edges in canonical order, which leaves every pred row
   sorted by source — and keeps the float summation order identical no
   matter which constructor produced [col]/[w], so patched snapshots are
   bit-for-bit equal to fresh freezes. *)
let finish ~n ~m ~row_off ~col ~w =
  let pred_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    pred_off.(col.(e) + 1) <- pred_off.(col.(e) + 1) + 1
  done;
  for v = 0 to n - 1 do
    pred_off.(v + 1) <- pred_off.(v + 1) + pred_off.(v)
  done;
  let pred_src = Array.make m 0 and pred_edge = Array.make m 0 in
  let cursor = Array.sub pred_off 0 (max 1 n) in
  for u = 0 to n - 1 do
    for e = row_off.(u) to row_off.(u + 1) - 1 do
      let v = col.(e) in
      let p = cursor.(v) in
      cursor.(v) <- p + 1;
      pred_src.(p) <- u;
      pred_edge.(p) <- e
    done
  done;
  let out_wt = Array.make n 0. and in_wt = Array.make n 0. in
  for u = 0 to n - 1 do
    let s = ref 0. in
    for e = row_off.(u) to row_off.(u + 1) - 1 do
      s := !s +. w.(e)
    done;
    out_wt.(u) <- !s
  done;
  for v = 0 to n - 1 do
    let s = ref 0. in
    for p = pred_off.(v) to pred_off.(v + 1) - 1 do
      s := !s +. w.(pred_edge.(p))
    done;
    in_wt.(v) <- !s
  done;
  { n; m; row_off; col; w; pred_off; pred_src; pred_edge; out_wt; in_wt }

let of_graph g =
  let n = Graph.node_count g in
  let m = Graph.edge_count g in
  let row_off = Array.make (n + 1) 0 in
  Graph.iter_edges
    (fun ~src ~dst:_ _w -> row_off.(src + 1) <- row_off.(src + 1) + 1)
    g;
  for u = 0 to n - 1 do
    row_off.(u + 1) <- row_off.(u + 1) + row_off.(u)
  done;
  let es = Array.make m 0 and ed = Array.make m 0 and ew = Array.make m 0. in
  let next = ref 0 in
  Graph.iter_edges
    (fun ~src ~dst w ->
      let e = !next in
      incr next;
      es.(e) <- src;
      ed.(e) <- dst;
      ew.(e) <- w)
    g;
  let perm = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare es.(a) es.(b) in
      if c <> 0 then c else compare ed.(a) ed.(b))
    perm;
  let col = Array.make m 0 and w = Array.make m 0. in
  Array.iteri
    (fun i p ->
      col.(i) <- ed.(p);
      w.(i) <- ew.(p))
    perm;
  finish ~n ~m ~row_off ~col ~w

let remap ~n:n' t ~map =
  if Array.length map <> t.n then invalid_arg "Csr.remap: map length mismatch";
  let last = ref (-1) in
  Array.iter
    (fun v ->
      if v >= 0 then begin
        if v <= !last then
          invalid_arg "Csr.remap: map must be strictly increasing on survivors";
        last := v
      end)
    map;
  if n' <= !last then invalid_arg "Csr.remap: n too small for the map";
  (* A strictly increasing map keeps every row in canonical order, so the
     surviving edges are copied in place: no sort. *)
  let row_off' = Array.make (n' + 1) 0 in
  for u = 0 to t.n - 1 do
    if map.(u) >= 0 then
      for e = t.row_off.(u) to t.row_off.(u + 1) - 1 do
        if map.(t.col.(e)) >= 0 then
          row_off'.(map.(u) + 1) <- row_off'.(map.(u) + 1) + 1
      done
  done;
  for u = 0 to n' - 1 do
    row_off'.(u + 1) <- row_off'.(u + 1) + row_off'.(u)
  done;
  let m' = row_off'.(n') in
  let col' = Array.make m' 0 and w' = Array.make m' 0. in
  let next = ref 0 in
  for u = 0 to t.n - 1 do
    if map.(u) >= 0 then
      for e = t.row_off.(u) to t.row_off.(u + 1) - 1 do
        let d = map.(t.col.(e)) in
        if d >= 0 then begin
          col'.(!next) <- d;
          w'.(!next) <- t.w.(e);
          incr next
        end
      done
  done;
  finish ~n:n' ~m:m' ~row_off:row_off' ~col:col' ~w:w'

let patch_rows ?n t ~rows ~edges =
  let n' = match n with None -> t.n | Some n' -> n' in
  if n' < t.n then invalid_arg "Csr.patch_rows: n may not shrink";
  let k = Array.length rows in
  if Array.length edges <> k then
    invalid_arg "Csr.patch_rows: rows/edges length mismatch";
  Array.iteri
    (fun i r ->
      if r < 0 || r >= n' then invalid_arg "Csr.patch_rows: row out of range";
      if i > 0 && rows.(i - 1) >= r then
        invalid_arg "Csr.patch_rows: rows must be strictly increasing";
      let prev = ref (-1) in
      Array.iter
        (fun (d, wt) ->
          if d < 0 || d >= n' then
            invalid_arg "Csr.patch_rows: dst out of range";
          if d = r then invalid_arg "Csr.patch_rows: self loop";
          if d <= !prev then
            invalid_arg "Csr.patch_rows: row edges must be sorted by dst";
          if not (Float.is_finite wt) || wt <= 0. then
            invalid_arg "Csr.patch_rows: weight must be positive and finite";
          prev := d)
        edges.(i))
    rows;
  let appended = ref 0 in
  Array.iter (fun r -> if r >= t.n then incr appended) rows;
  if !appended <> n' - t.n then
    invalid_arg "Csr.patch_rows: every appended row must be patched";
  let row_off' = Array.make (n' + 1) 0 in
  for u = 0 to t.n - 1 do
    row_off'.(u + 1) <- t.row_off.(u + 1) - t.row_off.(u)
  done;
  Array.iteri (fun i r -> row_off'.(r + 1) <- Array.length edges.(i)) rows;
  for u = 0 to n' - 1 do
    row_off'.(u + 1) <- row_off'.(u + 1) + row_off'.(u)
  done;
  let m' = row_off'.(n') in
  let col' = Array.make m' 0 and w' = Array.make m' 0. in
  let ki = ref 0 and u = ref 0 in
  while !u < n' do
    if !ki < k && rows.(!ki) = !u then begin
      let base = row_off'.(!u) in
      Array.iteri
        (fun j (d, wt) ->
          col'.(base + j) <- d;
          w'.(base + j) <- wt)
        edges.(!ki);
      incr ki;
      incr u
    end
    else begin
      (* Contiguous run of unpatched rows: their layout is unchanged
         relative to the run start, so one blit per run suffices. Every
         row >= t.n is patched, so the run stays within the old arrays. *)
      let stop = if !ki < k then min rows.(!ki) t.n else t.n in
      let len = t.row_off.(stop) - t.row_off.(!u) in
      Array.blit t.col t.row_off.(!u) col' row_off'.(!u) len;
      Array.blit t.w t.row_off.(!u) w' row_off'.(!u) len;
      u := stop
    end
  done;
  finish ~n:n' ~m:m' ~row_off:row_off' ~col:col' ~w:w'

let edge_weight t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Csr.edge_weight: node out of range";
  let lo = ref t.row_off.(src) and hi = ref t.row_off.(src + 1) in
  let found = ref 0. in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col.(mid) in
    if c = dst then begin
      found := t.w.(mid);
      lo := !hi
    end
    else if c < dst then lo := mid + 1
    else hi := mid
  done;
  !found

let iter_edges f t =
  for u = 0 to t.n - 1 do
    for e = t.row_off.(u) to t.row_off.(u + 1) - 1 do
      f ~src:u ~dst:t.col.(e) t.w.(e)
    done
  done

(* Kahn's algorithm with a flat binary min-heap over node indices: the
   smallest zero-indegree node is emitted first, matching Topo.sort's
   deterministic tie-breaking without any list allocation. *)
let topo_order t =
  let n = t.n in
  let indeg = Array.make (max 1 n) 0 in
  for v = 0 to n - 1 do
    indeg.(v) <- t.pred_off.(v + 1) - t.pred_off.(v)
  done;
  let heap = Array.make (max 1 n) 0 in
  let size = ref 0 in
  let swap i j =
    let tmp = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- tmp
  in
  let push v =
    heap.(!size) <- v;
    incr size;
    let i = ref (!size - 1) in
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let v = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < !size && heap.(l) < heap.(!s) then s := l;
      if r < !size && heap.(r) < heap.(!s) then s := r;
      if !s = !i then sifting := false
      else begin
        swap !i !s;
        i := !s
      end
    done;
    v
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while !size > 0 do
    let v = pop () in
    order.(!filled) <- v;
    incr filled;
    for e = t.row_off.(v) to t.row_off.(v + 1) - 1 do
      let u = t.col.(e) in
      indeg.(u) <- indeg.(u) - 1;
      if indeg.(u) = 0 then push u
    done
  done;
  if !filled = n then Some order else None

(* Acyclicity does not need the tie-breaking heap: a ring-buffer queue
   (each node enters at most once, so a flat array suffices) and a
   processed-node count. *)
let is_acyclic t =
  let n = t.n in
  let indeg = Array.make (max 1 n) 0 in
  for v = 0 to n - 1 do
    indeg.(v) <- t.pred_off.(v + 1) - t.pred_off.(v)
  done;
  let queue = Array.make (max 1 n) 0 in
  let qt = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!qt) <- v;
      incr qt
    end
  done;
  let qh = ref 0 in
  while !qh < !qt do
    let v = queue.(!qh) in
    incr qh;
    for e = t.row_off.(v) to t.row_off.(v + 1) - 1 do
      let u = t.col.(e) in
      indeg.(u) <- indeg.(u) - 1;
      if indeg.(u) = 0 then begin
        queue.(!qt) <- u;
        incr qt
      end
    done
  done;
  !qh = n

(* Colored DFS with an explicit node stack and per-node edge cursors;
   colors: 0 = unvisited, 1 = on stack, 2 = done. *)
let find_cycle t =
  let n = t.n in
  let color = Array.make (max 1 n) 0 in
  let parent = Array.make (max 1 n) (-1) in
  let pos = Array.make (max 1 n) 0 in
  let stack = Array.make (max 1 n) 0 in
  let result = ref None in
  let root = ref 0 in
  while !result = None && !root < n do
    if color.(!root) = 0 then begin
      let top = ref 0 in
      stack.(0) <- !root;
      color.(!root) <- 1;
      pos.(!root) <- t.row_off.(!root);
      while !result = None && !top >= 0 do
        let v = stack.(!top) in
        if pos.(v) < t.row_off.(v + 1) then begin
          let e = pos.(v) in
          pos.(v) <- e + 1;
          let u = t.col.(e) in
          if color.(u) = 0 then begin
            parent.(u) <- v;
            color.(u) <- 1;
            pos.(u) <- t.row_off.(u);
            incr top;
            stack.(!top) <- u
          end
          else if color.(u) = 1 then begin
            (* Back edge v -> u: walk parents from v back to u. *)
            let rec collect x acc =
              if x = u then x :: acc else collect parent.(x) (x :: acc)
            in
            result := Some (collect v [])
          end
        end
        else begin
          color.(v) <- 2;
          decr top
        end
      done
    end;
    incr root
  done;
  !result

let min_incoming_cut t ~src =
  if src < 0 || src >= t.n then
    invalid_arg "Csr.min_incoming_cut: src out of range";
  let best = ref infinity and arg = ref src in
  for v = 0 to t.n - 1 do
    if v <> src && t.in_wt.(v) < !best then begin
      best := t.in_wt.(v);
      arg := v
    end
  done;
  (!best, !arg)
