module Rat = Nf_util.Rat

let named_graphs =
  Nf_named.Gallery.all
  @ [
      ("k4", Nf_named.Families.complete 4);
      ("k5", Nf_named.Families.complete 5);
      ("k7", Nf_named.Families.complete 7);
      ("c4", Nf_named.Families.cycle 4);
      ("c5", Nf_named.Families.cycle 5);
      ("c8", Nf_named.Families.cycle 8);
      ("c12", Nf_named.Families.cycle 12);
      ("star6", Nf_named.Families.star 6);
      ("star10", Nf_named.Families.star 10);
      ("path6", Nf_named.Families.path 6);
      ("wheel7", Nf_named.Families.wheel 7);
      ("q3", Nf_named.Families.hypercube 3);
      ("q4", Nf_named.Families.hypercube 4);
      ("k33", Nf_named.Families.complete_bipartite 3 3);
    ]

(* Exact forms ("2", "7/2") go through Rat.of_string and never touch a
   float: a string written in their alphabet gets Rat's verdict, its
   refusal of a component of magnitude 2^31 or more included.  Only
   decimal literals ("0.5") take the dyadic float route, whose numerator
   over 4096 stays under the same bound. *)
let bad s = Printf.sprintf "bad link cost %S (use e.g. 2, 0.5 or 7/2)" s

let alpha_of_string s =
  let s = String.trim s in
  let exact c = c = '-' || c = '/' || (c >= '0' && c <= '9') in
  match Rat.of_string s with
  | r -> Ok r
  | exception Invalid_argument msg when String.for_all exact s -> Error msg
  | exception Invalid_argument _ -> (
    match float_of_string_opt s with
    | Some x when Float.abs (x *. 4096.) < float_of_int Rat.component_limit -> (
      try Ok (Sweep.dyadic x) with Invalid_argument _ -> Error (bad s))
    | Some _ | None -> Error (bad s))

let graph_of_spec spec =
  match List.assoc_opt (String.lowercase_ascii spec) named_graphs with
  | Some g -> Ok g
  | None -> (
    try Ok (Nf_graph.Graph6.decode spec)
    with Invalid_argument msg ->
      Error
        (Printf.sprintf "unknown graph %S (not a gallery name, and graph6 failed: %s)" spec
           msg))
