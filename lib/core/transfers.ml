module Kernel = Nf_graph.Kernel

let inf = Kernel.inf
let iadd a b = if a = inf || b = inf then inf else a + b

(* Transfers pricing under the bilateral rule: an addition is priced at
   the joint benefit over 2 on both sides, so consent reduces to
   "joint benefit > 2α" (strict, mirroring the revised Definition 3), and
   the stable region's left end is closed; a deletion at the joint loss
   over 2 for i and ∞ for j, so exactly one Delete (i, j) is offered per
   edge whose joint loss is below 2α — severance is a joint decision,
   side payments make the initiator irrelevant.  i's call reads both
   endpoints' sums and keeps the joint sum for j's call on the same
   toggle.  The joint value is a sum of distance-sum differences,
   preserved by any automorphism carrying one pair to another, so the
   annotator prices one pair per orbit. *)
let price ws (s : Pairwise.sums) =
  let joint = ref (0, 2) in
  fun i j v ->
    let added = Kernel.has_edge ws i j in
    if v = i then begin
      let t u =
        if added then Pairwise.ibenefit ~base:(s.before u) (s.after u)
        else Pairwise.iloss ~base:(s.before u) (s.after u)
      in
      joint := (iadd (t i) (t j), 2);
      !joint
    end
    else if added then !joint
    else (inf, 1)

let stable_alpha_set_sym_ws ws sym g = Pairwise.stable_interval price ws sym g

let stable_alpha_set g =
  Kernel.with_ws (fun ws -> stable_alpha_set_sym_ws ws (Game.sweep_symmetry g) g)
