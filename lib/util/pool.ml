(* Work distribution: each batch is an index range [0, total).  Participants
   (the caller plus the resident workers) claim contiguous chunks from a
   shared atomic cursor and write results into per-index slots, so there is
   no shared mutable state beyond the cursor and the completion counter.
   Completion is tracked as a count of claimed-and-retired items under the
   pool mutex: a worker that wakes up late simply finds the cursor exhausted,
   retires nothing, and goes back to sleep — no participant head-count is
   needed, which is what makes missed wake-ups harmless. *)

type task = {
  body : int -> unit;
  total : int;
  chunk : int;
  next : int Atomic.t;
  mutable retired : int;  (* items claimed and finished; guarded by the pool mutex *)
  mutable failure : (exn * Printexc.raw_backtrace) option;  (* first one wins; guarded *)
}

type t = {
  width : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* a new batch was published (or shutdown) *)
  work_done : Condition.t;  (* the current batch fully retired *)
  mutable current : task option;
  mutable epoch : int;  (* bumped once per batch; workers sleep until it moves *)
  mutable stopped : bool;
  busy : bool Atomic.t;  (* held by the coordinating caller for the batch duration *)
  mutable workers : unit Domain.t list;
}

let jobs pool = pool.width

let failed pool task =
  Mutex.lock pool.mutex;
  let f = task.failure <> None in
  Mutex.unlock pool.mutex;
  f

(* Claim chunks until the cursor runs dry.  Called by workers and by the
   coordinator alike; every claimed index is retired exactly once even when
   the body raises, so the coordinator's wait always terminates. *)
let participate pool task =
  let rec loop () =
    let lo = Atomic.fetch_and_add task.next task.chunk in
    if lo < task.total then begin
      let hi = min task.total (lo + task.chunk) in
      if not (failed pool task) then begin
        try
          for i = lo to hi - 1 do
            task.body i
          done
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock pool.mutex;
          if task.failure = None then task.failure <- Some (exn, bt);
          Mutex.unlock pool.mutex
      end;
      Mutex.lock pool.mutex;
      task.retired <- task.retired + (hi - lo);
      if task.retired >= task.total then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex;
      loop ()
    end
  in
  loop ()

let rec worker_loop pool seen_epoch =
  Mutex.lock pool.mutex;
  while (not pool.stopped) && pool.epoch = seen_epoch do
    Condition.wait pool.work_ready pool.mutex
  done;
  if pool.stopped then Mutex.unlock pool.mutex
  else begin
    let epoch = pool.epoch in
    let task = pool.current in
    Mutex.unlock pool.mutex;
    Option.iter (participate pool) task;
    worker_loop pool epoch
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      width = jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      epoch = 0;
      stopped = false;
      busy = Atomic.make false;
      workers = [];
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.stopped <- true;
  pool.workers <- [];
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let sequential_for total body =
  for i = 0 to total - 1 do
    body i
  done

let run pool total body =
  if total > 0 then
    if
      pool.width <= 1 || total = 1 || pool.stopped
      || not (Atomic.compare_and_set pool.busy false true)
    then sequential_for total body
    else begin
      (* several chunks per participant so uneven item costs still balance,
         but chunks big enough that the cursor is not contended per item *)
      let chunk = max 1 (min 1024 (total / (pool.width * 8))) in
      let task = { body; total; chunk; next = Atomic.make 0; retired = 0; failure = None } in
      Mutex.lock pool.mutex;
      pool.current <- Some task;
      pool.epoch <- pool.epoch + 1;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.mutex;
      participate pool task;
      Mutex.lock pool.mutex;
      while task.retired < task.total do
        Condition.wait pool.work_done pool.mutex
      done;
      let failure = task.failure in
      Mutex.unlock pool.mutex;
      Atomic.set pool.busy false;
      match failure with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ()
    end

(* ---------------- the default pool ---------------- *)

let default_jobs () =
  match Sys.getenv_opt "NETFORM_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_pool = ref None
let default_mutex = Mutex.create ()
let exit_hook_installed = ref false

let default () =
  Mutex.protect default_mutex (fun () ->
      match !default_pool with
      | Some pool when not pool.stopped -> pool
      | _ ->
        let pool = create ~jobs:(default_jobs ()) in
        default_pool := Some pool;
        if not !exit_hook_installed then begin
          exit_hook_installed := true;
          at_exit (fun () -> Option.iter shutdown !default_pool)
        end;
        pool)

let set_default_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  let old =
    Mutex.protect default_mutex (fun () ->
        let old = !default_pool in
        default_pool := Some (create ~jobs);
        old)
  in
  Option.iter shutdown old

(* ---------------- maps ---------------- *)

let resolve = function
  | Some pool -> pool
  | None -> default ()

(* explicit left-to-right, so jobs = 1 is the exact sequential evaluation *)
let map_seq f l = List.rev (List.rev_map f l)

let force = function
  | Some v -> v
  | None -> assert false (* every slot is written exactly once before the batch retires *)

let parallel_map ?pool f l =
  let pool = resolve pool in
  if pool.width <= 1 then map_seq f l
  else
    match l with
    | [] -> []
    | [ x ] -> [ f x ]
    | l ->
      let input = Array.of_list l in
      let output = Array.make (Array.length input) None in
      run pool (Array.length input) (fun i -> output.(i) <- Some (f input.(i)));
      List.rev (Array.fold_left (fun acc slot -> force slot :: acc) [] output)

let parallel_map_array ?pool f a =
  let pool = resolve pool in
  if pool.width <= 1 || Array.length a <= 1 then Array.map f a
  else begin
    let output = Array.make (Array.length a) None in
    run pool (Array.length a) (fun i -> output.(i) <- Some (f a.(i)));
    Array.map force output
  end
