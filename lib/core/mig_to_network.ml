open Logic

let export mig =
  let net = Network.create () in
  (* Network node of each MIG node, and of its shared inverter: one NOT
     gate per complemented node occurrence. *)
  let map = Array.make (Mig.num_nodes mig) (-1) in
  let inverters = Array.make (Mig.num_nodes mig) (-1) in
  map.(0) <- Network.const net false;
  for i = 0 to Mig.num_pis mig - 1 do
    map.(Mig.node_of (Mig.pi mig i)) <- Network.add_input net (Printf.sprintf "x%d" i)
  done;
  let value s =
    let n = Mig.node_of s in
    if not (Mig.is_compl s) then map.(n)
    else begin
      if inverters.(n) < 0 then inverters.(n) <- Network.not_ net map.(n);
      inverters.(n)
    end
  in
  Mig.iter_topo mig (fun g ->
      map.(g) <-
        Network.maj net
          (value (Mig.fanin mig g 0))
          (value (Mig.fanin mig g 1))
          (value (Mig.fanin mig g 2)));
  Array.iteri
    (fun i s -> Network.add_output net (Printf.sprintf "y%d" i) (value s))
    (Mig.pos mig);
  net
