let slug_of_title title =
  let buf = Buffer.create (String.length title) in
  let last_dash = ref true in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' ->
        Buffer.add_char buf c;
        last_dash := false
      | 'A' .. 'Z' ->
        Buffer.add_char buf (Char.lowercase_ascii c);
        last_dash := false
      | _ ->
        if not !last_dash then begin
          Buffer.add_char buf '-';
          last_dash := true
        end)
    title;
  let s = Buffer.contents buf in
  let len = String.length s in
  if len > 0 && s.[len - 1] = '-' then String.sub s 0 (len - 1) else s

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_all ~dir ~results ~points () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref [] in
  let emit name contents =
    let path = Filename.concat dir name in
    write_file path contents;
    written := path :: !written
  in
  List.iter
    (fun (r : Experiments.result) ->
      let name =
        Printf.sprintf "%s_%s.txt"
          (String.lowercase_ascii r.Experiments.id)
          (slug_of_title r.Experiments.title)
      in
      emit name (Experiments.render r))
    results;
  emit "figure2_figure3.csv" (Figures.to_csv points);
  let summary =
    String.concat "\n"
      (List.map
         (fun (r : Experiments.result) ->
           Printf.sprintf "%-4s %-70s %s" r.Experiments.id r.Experiments.title
             (if r.Experiments.ok then "ok" else "CHECK FAILED"))
         results)
    ^ "\n"
  in
  emit "summary.txt" summary;
  List.rev !written
