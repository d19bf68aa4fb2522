open Rdf

type def = { name : Term.t; shape : Shape.t; target : Shape.t }

type t = { defs : def list; by_name : def Term.Map.t }

type error = Duplicate_name of Term.t | Recursive of Term.t list

let pp_error ppf = function
  | Duplicate_name n ->
      Format.fprintf ppf "duplicate shape name %a" Term.pp n
  | Recursive cycle ->
      Format.fprintf ppf "recursive schema: %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
           Term.pp)
        cycle

let def_references (def : def) =
  Term.Set.union
    (Shape.referenced_names def.shape)
    (Shape.referenced_names def.target)

(* Detect a cycle in the shape-name reference graph by DFS with an
   explicit path, so the error can report the cycle itself. *)
let find_cycle by_name =
  let visited = ref Term.Set.empty in
  let rec dfs path_set path name =
    if Term.Set.mem name path_set then Some (List.rev (name :: path))
    else if Term.Set.mem name !visited then None
    else begin
      visited := Term.Set.add name !visited;
      match Term.Map.find_opt name by_name with
      | None -> None
      | Some def ->
          let refs = def_references def in
          Term.Set.fold
            (fun next acc ->
              match acc with
              | Some _ -> acc
              | None -> dfs (Term.Set.add name path_set) (name :: path) next)
            refs None
    end
  in
  Term.Map.fold
    (fun name _ acc ->
      match acc with Some _ -> acc | None -> dfs Term.Set.empty [] name)
    by_name None

let make defs =
  let rec index acc = function
    | [] -> Ok acc
    | def :: rest ->
        if Term.Map.mem def.name acc then Error (Duplicate_name def.name)
        else index (Term.Map.add def.name def acc) rest
  in
  match index Term.Map.empty defs with
  | Error e -> Error e
  | Ok by_name -> (
      match find_cycle by_name with
      | Some cycle -> Error (Recursive cycle)
      | None -> Ok { defs; by_name })

let make_exn defs =
  match make defs with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Schema.make: %a" pp_error e)

let empty = { defs = []; by_name = Term.Map.empty }
let defs t = t.defs
let find t name = Term.Map.find_opt name t.by_name

let def_shape t name =
  match find t name with Some def -> def.shape | None -> Shape.Top

let def_list l =
  make_exn
    (List.map (fun (name, shape, target) ->
         { name = Term.iri name; shape; target })
        l)

let targeted (def : def) = not (Shape.equal def.target Shape.Bottom)

let request_shapes t =
  List.map (fun def -> Shape.and_ [ def.shape; def.target ]) t.defs

(* Evaluation-time unfolding.  [hasShape(s)] means [def(s)] (Tables
   1-2) and schemas are acyclic, so substituting a definition's shape
   for a reference to it changes no verdict and no neighborhood.  Only
   untargeted definitions referenced exactly once are substituted: each
   such body is copied into its single user and nowhere else, so no
   definition's shape outgrows the schema.  Every definition is kept, in
   order, with its own shape unfolded too (the copy inside its user is
   physically the same value). *)
let unfold t =
  let count s uses =
    match s with
    | Shape.Has_shape n ->
        Term.Map.update n (fun k -> Some (1 + Option.value k ~default:0)) uses
    | _ -> uses
  in
  let uses =
    List.fold_left
      (fun uses def ->
        Shape.fold_subshapes count def.shape
          (Shape.fold_subshapes count def.target uses))
      Term.Map.empty t.defs
  in
  let inlined name =
    match find t name with
    | Some def -> (not (targeted def)) && Term.Map.find_opt name uses = Some 1
    | None -> false
  in
  let memo = ref Term.Map.empty in
  let rec go = function
    | Shape.Has_shape name when inlined name -> unfolded name
    | shape -> Shape.map_children go shape
  and unfolded name =
    match Term.Map.find_opt name !memo with
    | Some shape -> shape
    | None ->
        let shape = go (def_shape t name) in
        memo := Term.Map.add name shape !memo;
        shape
  in
  let defs =
    List.map
      (fun def -> { def with shape = unfolded def.name; target = go def.target })
      t.defs
  in
  { defs;
    by_name =
      List.fold_left (fun m def -> Term.Map.add def.name def m) Term.Map.empty
        defs }

let pp ppf t =
  List.iter
    (fun def ->
      Format.fprintf ppf "@[<v 2>shape %a@ expr:   %a@ target: %a@]@."
        Term.pp def.name Shape.pp def.shape Shape.pp def.target)
    t.defs
