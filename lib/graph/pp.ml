module Ext_int = Nf_util.Ext_int

let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  for v = 0 to Graph.order g - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
  done;
  Graph.iter_edges g (fun i j -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" i j));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let summary g =
  let classification =
    match Props.strongly_regular_params g with
    | Some (n, k, lambda, mu) -> Printf.sprintf "srg(%d,%d,%d,%d)" n k lambda mu
    | None -> (
      match Props.regularity g with
      | Some k -> Printf.sprintf "%d-regular" k
      | None -> "irregular")
  in
  Printf.sprintf "n=%d m=%d degrees=[%s] diam=%s girth=%s %s%s" (Graph.order g)
    (Graph.size g)
    (String.concat ";" (List.map string_of_int (Props.degree_sequence g)))
    (Ext_int.to_string (Apsp.diameter g))
    (Ext_int.to_string (Girth.girth g))
    classification
    (if Connectivity.is_connected g then "" else " disconnected")
