module Kernel = Nf_graph.Kernel

type profile = {
  name : string;
  f : int -> int;
}

let linear = { name = "linear"; f = Fun.id }
let quadratic = { name = "quadratic"; f = (fun d -> d * d) }
let hop_capped h = { name = Printf.sprintf "hop-capped(%d)" h; f = (fun d -> min d h) }
let connectivity = { name = "connectivity"; f = (fun _ -> 0) }

(* The BCG's pricing with Σ f(d) in place of the distance sum: a
   player's cost is read off its kernel distance row, Kernel.inf when
   some vertex is out of reach, and its benefit or loss follows the
   Pairwise.ibenefit/iloss conventions, over 1.  The caller's distance
   sums go unread: Σ f(d) is not a function of Σ d.  Costs depend on the
   distance multiset only, so the annotator prices one pair per orbit. *)
let price profile ws (_ : Pairwise.sums) =
  let n = Kernel.order ws in
  let cost v =
    if Kernel.distances_from ws v = Kernel.inf then Kernel.inf
    else begin
      let rows = Kernel.distance_rows ws and total = ref 0 in
      for w = 0 to n - 1 do
        total := !total + profile.f (Bytes.get_uint16_ne rows (2 * ((v * n) + w)))
      done;
      !total
    end
  in
  let base = Array.init n cost in
  fun i j v ->
    let after = cost v in
    if Kernel.has_edge ws i j then (Pairwise.ibenefit ~base:base.(v) after, 1)
    else (Pairwise.iloss ~base:base.(v) after, 1)

let stable_alpha_set profile g =
  Kernel.with_ws (fun ws -> Pairwise.stable_interval (price profile) ws (Game.sweep_symmetry g) g)
