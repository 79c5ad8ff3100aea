let clear_cache = Source.clear_cache

let regions source region =
  List.rev (Source.fold source (fun acc g r -> (g, region r) :: acc) [])

let bcg_annotated n =
  regions (Source.fresh (Nf_store.Layout.classic ~with_ucg:false) n) (fun r -> r.Nf_store.Layout.bcg)

let ucg_annotated n = regions (Source.classic n) (fun r -> Option.get r.Nf_store.Layout.ucg)
