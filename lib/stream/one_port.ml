type config = {
  chunks : int;
  chunk_size : float;
  seed : int64;
  max_time : float;
}

let default_config = { chunks = 100; chunk_size = 1.; seed = 42L; max_time = 1e8 }

type result = {
  delivered_all : bool;
  completion_time : float;
  achieved_rate : float;
  transfers : int;
}

let simulate ?(config = default_config) ~bout ~bin ~guarded () =
  let nodes = Array.length bout in
  if nodes < 1 || Array.length bin <> nodes || Array.length guarded <> nodes then
    invalid_arg "One_port.simulate: array size mismatch";
  if guarded.(0) then invalid_arg "One_port.simulate: source must be open";
  if config.chunks < 1 || config.chunk_size <= 0. then
    invalid_arg "One_port.simulate: bad chunk configuration";
  let k = config.chunks in
  let rng = Prng.Splitmix.create config.seed in
  let owned = Array.init nodes (fun _ -> Bytes.make k '\000') in
  let owned_count = Array.make nodes 0 in
  Bytes.fill owned.(0) 0 k '\001';
  owned_count.(0) <- k;
  let sending = Array.make nodes false and receiving = Array.make nodes false in
  let complete_nodes = ref 1 in
  let per_node_completion = Array.make nodes infinity in
  per_node_completion.(0) <- 0.;
  (* A sender has at most one transfer in flight, so the heap payload is
     the sender and its receiver and chunk sit in per-sender slots. *)
  let queue = Eheap.create ~capacity:nodes () in
  let target = Array.make nodes (-1) and carrying = Array.make nodes (-1) in
  let transfers = ref 0 in
  let allowed i j = not (guarded.(i) && guarded.(j)) in
  (* A free sender picks a uniformly random (receiver, chunk) pair among
     useful ones: free receiver it may talk to, missing a chunk it owns. *)
  let pick_transfer i =
    let receiver = ref (-1) and seen = ref 0 in
    for j = 0 to nodes - 1 do
      if j <> i && (not receiving.(j)) && allowed i j && owned_count.(j) < k
      then begin
        (* Does i own something j lacks? *)
        let useful = ref false in
        (try
           for c = 0 to k - 1 do
             if Bytes.get owned.(i) c = '\001' && Bytes.get owned.(j) c = '\000'
             then begin
               useful := true;
               raise Exit
             end
           done
         with Exit -> ());
        if !useful then begin
          incr seen;
          if Prng.Splitmix.next_below rng !seen = 0 then receiver := j
        end
      end
    done;
    if !receiver < 0 then None
    else begin
      let j = !receiver in
      let chunk = ref (-1) and seen = ref 0 in
      for c = 0 to k - 1 do
        if Bytes.get owned.(i) c = '\001' && Bytes.get owned.(j) c = '\000' then begin
          incr seen;
          if Prng.Splitmix.next_below rng !seen = 0 then chunk := c
        end
      done;
      Some (j, !chunk)
    end
  in
  let try_start now i =
    if (not sending.(i)) && owned_count.(i) > 0 then
      match pick_transfer i with
      | None -> ()
      | Some (j, c) ->
        let rate = Float.min bout.(i) bin.(j) in
        if rate > 0. && config.chunk_size /. rate < config.max_time then begin
          sending.(i) <- true;
          receiving.(j) <- true;
          target.(i) <- j;
          carrying.(i) <- c;
          Eheap.add queue (now +. (config.chunk_size /. rate)) i
        end
  in
  try_start 0. 0;
  let rec loop () =
    if Eheap.pop queue && Eheap.popped_time queue <= config.max_time then begin
      let now = Eheap.popped_time queue and src = Eheap.popped_payload queue in
      let dst = target.(src) and chunk = carrying.(src) in
      sending.(src) <- false;
      receiving.(dst) <- false;
      incr transfers;
      if Bytes.get owned.(dst) chunk = '\000' then begin
        Bytes.set owned.(dst) chunk '\001';
        owned_count.(dst) <- owned_count.(dst) + 1;
        if owned_count.(dst) = k then begin
          per_node_completion.(dst) <- now;
          incr complete_nodes
        end
      end;
      if !complete_nodes < nodes then begin
        (* Both endpoints freed; any idle sender may now find dst free or
           benefit from dst's new chunk — retry everyone (n is small). *)
        for v = 0 to nodes - 1 do
          try_start now v
        done;
        loop ()
      end
    end
  in
  loop ();
  let delivered_all = !complete_nodes = nodes in
  let completion_time = Array.fold_left Float.max 0. per_node_completion in
  {
    delivered_all;
    completion_time = (if delivered_all then completion_time else infinity);
    achieved_rate =
      (if delivered_all && completion_time > 0. then
         float_of_int k *. config.chunk_size /. completion_time
       else 0.);
    transfers = !transfers;
  }
