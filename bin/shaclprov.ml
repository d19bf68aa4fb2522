(* shaclprov: SHACL validation with data provenance.

   Subcommands:
     validate      validate a data graph against a SHACL shapes graph
     lint          static analysis of a shapes graph (no data needed)
     neighborhood  provenance of one node for one shape (why / why-not)
     fragment      extract the shape fragment of a graph
     to-sparql     show the SPARQL translation of a shape's queries
     serve         long-running fragment/validation service over TCP
     request       resilient client for a running serve instance

   Error handling: argument-shaped problems (unreadable files, malformed
   --prefix bindings) are rejected by cmdliner argument converters with a
   usage message; runtime failures (parse errors, bad shapes) surface as
   [Error msg] through [Cmd.eval_result'], printing "shaclprov: msg" and
   exiting with [Cmd.Exit.some_error] — never an exception backtrace. *)

open Cmdliner

(* ---------------- shared arguments and helpers -------------------- *)

let data_arg =
  let doc = "Data graph (Turtle or N-Triples file)." in
  Arg.(required & opt (some file) None & info [ "d"; "data" ] ~docv:"FILE" ~doc)

let shapes_arg =
  let doc = "SHACL shapes graph (Turtle file)." in
  Arg.(value & opt (some file) None & info [ "s"; "shapes" ] ~docv:"FILE" ~doc)

let shape_exprs_arg =
  let doc =
    "Request shape in the library's text syntax, e.g. \
     '>=1 ex:author . >=1 rdf:type . hasValue(ex:Student)'.  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "e"; "shape" ] ~docv:"SHAPE" ~doc)

(* A PREFIX=IRI binding, validated at argument-parse time. *)
(* Turtle's PN_PREFIX: a letter, then letters, digits, '_', '-' or '.',
   not ending in '.'.  Non-ASCII bytes pass, as in the Turtle reader.  A
   name outside it (say, one containing ':') would print prefixed names
   that no [@prefix] directive can declare. *)
let is_pn_prefix s =
  let base c =
    match c with 'a' .. 'z' | 'A' .. 'Z' -> true | c -> Char.code c >= 128
  in
  let inner c =
    base c || match c with '0' .. '9' | '_' | '-' | '.' -> true | _ -> false
  in
  let n = String.length s in
  n > 0 && base s.[0] && s.[n - 1] <> '.' && String.for_all inner s

let prefix_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i when is_pn_prefix (String.sub s 0 i) ->
        Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | _ -> Error (`Msg (Printf.sprintf "bad prefix binding %S, expected PREFIX=IRI" s))
  in
  let print ppf (prefix, iri) = Format.fprintf ppf "%s=%s" prefix iri in
  Arg.conv (parse, print)

let prefix_arg =
  let doc =
    "Extra prefix binding PREFIX=IRI for shape expressions and output.  \
     Repeatable.  rdf, rdfs, xsd, sh and ex are predefined."
  in
  Arg.(value & opt_all prefix_conv [] & info [ "p"; "prefix" ] ~docv:"PFX=IRI" ~doc)

let node_arg =
  let doc = "Focus node (IRI, possibly prefixed)." in
  Arg.(
    required & opt (some string) None & info [ "n"; "node" ] ~docv:"IRI" ~doc)

let jobs_arg =
  let doc =
    "Number of worker domains for the parallel engine (default 1, i.e. \
     run on the calling domain only).  The result does not depend on $(docv)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let stats_arg =
  let doc =
    "Print execution statistics (candidates checked, memo traffic, path \
     evaluations, per-shape timings) to standard error."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* Strictly positive numeric converters: a zero or negative deadline,
   fuel bound, queue capacity or retry count is always a spelling
   mistake, so reject it at argument-parse time with a clean conversion
   error instead of surfacing a confusing runtime failure. *)
let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 && Float.is_finite f -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "%S is not a positive number" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv ~docv:"NUM" (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv ~docv:"N" (parse, fun ppf n -> Format.fprintf ppf "%d" n)

let timeout_arg =
  let doc =
    "Wall-clock deadline in seconds for the whole evaluation (a positive \
     number).  Work started after the deadline fails with a budget error; \
     combined with --on-error=skip the run degrades to the results \
     computed in time."
  in
  Arg.(
    value & opt (some pos_float_conv) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let fuel_arg =
  let doc =
    "Evaluation-fuel bound (a positive integer): the total number of \
     memoized conformance lookups and path-evaluation steps allowed, \
     shared across workers.  Bounds runaway recursion independently of \
     wall-clock time."
  in
  Arg.(value & opt (some pos_int_conv) None & info [ "fuel" ] ~docv:"N" ~doc)

let on_error_arg =
  let doc =
    "What to do when a shape's evaluation fails (fault, timeout, fuel): \
     $(b,fail) aborts the run (exit 123), $(b,skip) completes with the \
     results of every healthy shape and exits 3."
  in
  Arg.(
    value
    & opt (enum [ ("fail", `Fail); ("skip", `Skip) ]) `Fail
    & info [ "on-error" ] ~docv:"POLICY" ~doc)

let budget_of timeout fuel =
  match (timeout, fuel) with
  | None, None -> Runtime.Budget.unlimited
  | _ -> Runtime.Budget.make ?timeout ?fuel ()

(* "Completed with partial results": some shapes failed but --on-error
   skip let the run finish with every healthy shape's output. *)
let exit_degraded = 3

let print_stats stats = Format.eprintf "%a@." Provenance.Engine.Stats.pp stats

exception Fail of string

let die fmt = Format.kasprintf (fun m -> raise (Fail m)) fmt

let namespaces_of prefixes =
  List.fold_left
    (fun acc (prefix, iri) -> Rdf.Namespace.add prefix iri acc)
    Rdf.Namespace.default prefixes

let load_graph path =
  match Rdf.Turtle.parse_file path with
  | Ok g -> g
  | Error e -> die "%a" Rdf.Turtle.pp_error e

let load_schema = function
  | None -> Shacl.Schema.empty
  | Some path -> (
      match Shacl.Shapes_graph.load (load_graph path) with
      | Ok schema -> schema
      | Error e -> die "%s: %a" path Shacl.Shapes_graph.pp_error e)

(* Surface schema problems found by the static analyzer on the
   subcommands that consume a shapes graph. *)
let warn_schema schema =
  List.iter
    (fun d -> Format.eprintf "%a@." Analysis.Diagnostic.pp d)
    (List.filter
       (Analysis.Diagnostic.at_least Analysis.Diagnostic.Warning)
       (Analysis.Analyzer.analyze schema))

(* With [schema], every [shape(s)] must name one of its definitions. *)
let parse_shapes ?schema namespaces exprs =
  List.map
    (fun src ->
      match Shacl.Shape_syntax.parse ~namespaces ?schema src with
      | Ok shape -> shape
      | Error e -> die "shape %S: %a" src Shacl.Shape_syntax.pp_error e)
    exprs

let parse_node namespaces src =
  match Rdf.Namespace.node namespaces src with
  | Ok v -> v
  | Error m -> die "%s" m

(* Run the command body; [Fail] (and stray I/O errors) become a clean
   [Error] message rather than an uncaught exception.  The body returns
   the process exit code.  Every runtime failure — including exhausted
   budgets and injected faults under --on-error=fail — takes this path
   and exits with [Cmd.Exit.some_error] (123). *)
let wrap f =
  match f () with
  | code -> Ok code
  | exception Fail m -> Error m
  | exception Sys_error m -> Error m
  | exception Runtime.Budget.Exhausted r ->
      Error
        (Format.asprintf "budget exhausted (%a); rerun with --on-error=skip \
                          to keep partial results" Runtime.Budget.pp_reason r)
  | exception Runtime.Fault.Injected site ->
      Error (Printf.sprintf "injected fault at %s" site)
  | exception e -> Error (Printexc.to_string e)

(* ---------------- validate ---------------------------------------- *)

let validate_cmd =
  let rdf_report_arg =
    let doc = "Print the result as a W3C validation report in Turtle." in
    Arg.(value & flag & info [ "rdf-report" ] ~doc)
  in
  let run data shapes rdf_report jobs stats timeout fuel on_error =
    wrap (fun () ->
        let g = load_graph data in
        let schema =
          match shapes with
          | Some _ -> load_schema shapes
          | None -> die "validate requires --shapes"
        in
        warn_schema schema;
        let budget = budget_of timeout fuel in
        let report, engine_stats =
          Provenance.Engine.validate ~jobs ~budget ~on_error schema g
        in
        if stats then print_stats engine_stats;
        let degraded = Provenance.Engine.Stats.degraded engine_stats in
        if rdf_report then print_string (Shacl.Report.to_turtle report)
        else Format.printf "%a@." Shacl.Validate.pp_report report;
        if degraded then exit_degraded
        else if report.Shacl.Validate.conforms then 0
        else 1)
  in
  let doc = "Validate a data graph against a SHACL shapes graph." in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(
      const run $ data_arg $ shapes_arg $ rdf_report_arg $ jobs_arg
      $ stats_arg $ timeout_arg $ fuel_arg $ on_error_arg)

(* ---------------- lint --------------------------------------------- *)

let lint_cmd =
  let severity_arg =
    let doc =
      "Minimum severity to report: $(b,error), $(b,warning) or $(b,hint) \
       (default: everything)."
    in
    Arg.(
      value
      & opt
          (enum
             [ "error", Analysis.Diagnostic.Error;
               "warning", Analysis.Diagnostic.Warning;
               "hint", Analysis.Diagnostic.Hint ])
          Analysis.Diagnostic.Hint
      & info [ "severity" ] ~docv:"SEVERITY" ~doc)
  in
  let run shapes severity =
    wrap (fun () ->
        let schema =
          match shapes with
          | Some _ -> load_schema shapes
          | None -> die "lint requires --shapes"
        in
        let diagnostics = Analysis.Analyzer.analyze schema in
        let shown =
          List.filter (Analysis.Diagnostic.at_least severity) diagnostics
        in
        List.iter
          (fun d -> Format.printf "%a@." Analysis.Diagnostic.pp d)
          shown;
        let count sev =
          List.length
            (List.filter
               (fun (d : Analysis.Diagnostic.t) -> d.severity = sev)
               diagnostics)
        in
        Format.printf "%d shape(s) checked: %d error(s), %d warning(s), %d \
                       hint(s)@."
          (List.length (Shacl.Schema.defs schema))
          (count Analysis.Diagnostic.Error)
          (count Analysis.Diagnostic.Warning)
          (count Analysis.Diagnostic.Hint);
        if Analysis.Diagnostic.has_errors diagnostics then 1 else 0)
  in
  let doc =
    "Statically analyze a shapes graph: unsatisfiable shapes, count and \
     closedness conflicts, non-monotone targets (Theorem 4.1), dangling \
     references, dead shapes, provenance-trivial shapes.  Exits non-zero \
     when errors are found."
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ shapes_arg $ severity_arg)

(* ---------------- analyze ------------------------------------------ *)

let analyze_cmd =
  let json_arg =
    let doc = "Print the analysis as a JSON document instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let diagnostic_json (d : Analysis.Diagnostic.t) =
    let escape s =
      let buf = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.contents buf
    in
    Printf.sprintf
      "    {\"severity\": \"%s\", \"code\": \"%s\", \"shape\": %s, \
       \"message\": \"%s\"}"
      (Analysis.Diagnostic.severity_to_string d.severity)
      (Analysis.Diagnostic.code_to_string d.code)
      (match d.subject with
      | Some s -> Printf.sprintf "\"%s\"" (escape (Rdf.Term.to_string s))
      | None -> "null")
      (escape d.message)
  in
  let run shapes json =
    wrap (fun () ->
        let schema =
          match shapes with
          | Some _ -> load_schema shapes
          | None -> die "analyze requires --shapes"
        in
        let diagnostics = Analysis.Analyzer.analyze schema in
        let lattice = Analysis.Containment.lattice schema in
        if json then begin
          print_string "{\n  \"diagnostics\": [\n";
          print_string
            (String.concat ",\n" (List.map diagnostic_json diagnostics));
          print_string "\n  ],\n  \"lattice\": ";
          (* splice the lattice document in, re-indented one level *)
          let doc =
            String.trim (Analysis.Containment.lattice_to_json lattice)
          in
          print_string
            (String.concat "\n"
               (List.mapi
                  (fun i line -> if i = 0 then line else "  " ^ line)
                  (String.split_on_char '\n' doc)));
          print_string "\n}\n"
        end
        else begin
          List.iter
            (fun d -> Format.printf "%a@." Analysis.Diagnostic.pp d)
            diagnostics;
          Format.printf "%a" Analysis.Containment.pp_lattice lattice
        end;
        if Analysis.Diagnostic.has_errors diagnostics then 1 else 0)
  in
  let doc =
    "Statically analyze a shapes graph and print its diagnostics (as \
     $(b,lint) does) plus the cross-shape containment lattice: every \
     proven containment and equivalence between its shape definitions.  \
     Exits non-zero when the schema has errors."
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ shapes_arg $ json_arg)

(* ---------------- neighborhood ------------------------------------ *)

let neighborhood_cmd =
  let run data shapes exprs prefixes node =
    wrap (fun () ->
        let namespaces = namespaces_of prefixes in
        let g = load_graph data in
        let schema = load_schema shapes in
        let shapes_to_check =
          match parse_shapes ~schema namespaces exprs with
          | [] ->
              (* fall back to every shape definition of the shapes graph *)
              List.map
                (fun (d : Shacl.Schema.def) -> d.Shacl.Schema.shape)
                (Shacl.Schema.defs schema)
          | l -> l
        in
        if shapes_to_check = [] then die "no shapes given (--shape or --shapes)";
        let v = parse_node namespaces node in
        (* Every shape and why-not pass is decided on the store by one
           decider: the term maps are never built. *)
        let d =
          Provenance.Neighborhood.decider (Provenance.Engine.store_of g)
        in
        List.iter
          (fun shape ->
            Format.printf "shape: %s@."
              (Shacl.Shape_syntax.print ~namespaces shape);
            match Provenance.Neighborhood.check_with ~schema d v shape with
            | true, neighborhood ->
                Format.printf "%a conforms; neighborhood:@.%s@." Rdf.Term.pp v
                  (Rdf.Turtle.to_string ~prefixes:namespaces neighborhood)
            | false, _ ->
                (* why-not provenance (Remark 3.7): B(v, ¬shape) *)
                let _, explanation =
                  Provenance.Neighborhood.check_with ~schema d v
                    (Shacl.Shape.Not shape)
                in
                Format.printf
                  "%a does not conform; why-not explanation:@.%s@." Rdf.Term.pp
                  v
                  (Rdf.Turtle.to_string ~prefixes:namespaces explanation))
          shapes_to_check;
        0)
  in
  let doc =
    "Provenance of a node for a shape: its neighborhood when it conforms, \
     the why-not explanation when it does not."
  in
  Cmd.v
    (Cmd.info "neighborhood" ~doc)
    Term.(
      const run $ data_arg $ shapes_arg $ shape_exprs_arg $ prefix_arg
      $ node_arg)

(* ---------------- fragment ---------------------------------------- *)

let fragment_cmd =
  let run data shapes exprs prefixes jobs stats timeout fuel on_error =
    wrap (fun () ->
        let namespaces = namespaces_of prefixes in
        let g = load_graph data in
        let schema = load_schema shapes in
        if shapes <> None then warn_schema schema;
        let requests =
          match parse_shapes ~schema namespaces exprs with
          | [] ->
              if Shacl.Schema.defs schema = [] then
                die "no request shapes given (--shape or --shapes)"
              else Provenance.Engine.requests_of_schema schema
          | request_shapes ->
              List.map
                (fun shape ->
                  Provenance.Engine.request
                    ~label:(Shacl.Shape_syntax.print ~namespaces shape)
                    shape)
                request_shapes
        in
        let budget = budget_of timeout fuel in
        let fragment, engine_stats =
          Provenance.Engine.run ~schema ~jobs ~budget ~on_error g requests
        in
        if stats then print_stats engine_stats;
        print_string (Rdf.Turtle.to_string ~prefixes:namespaces fragment);
        if Provenance.Engine.Stats.degraded engine_stats then exit_degraded
        else 0)
  in
  let doc =
    "Extract the shape fragment: the union of the neighborhoods of all \
     conforming nodes (for --shape requests) or of the schema's \
     target-conjoined shapes (for --shapes).  Runs on the parallel \
     engine; see --jobs and --stats."
  in
  Cmd.v
    (Cmd.info "fragment" ~doc)
    Term.(
      const run $ data_arg $ shapes_arg $ shape_exprs_arg $ prefix_arg
      $ jobs_arg $ stats_arg $ timeout_arg $ fuel_arg $ on_error_arg)

(* ---------------- to-sparql --------------------------------------- *)

let to_sparql_cmd =
  let run exprs prefixes =
    wrap (fun () ->
        let namespaces = namespaces_of prefixes in
        match parse_shapes namespaces exprs with
        | [] -> die "to-sparql requires at least one --shape"
        | shapes ->
            List.iter
              (fun shape ->
                Format.printf "# neighborhood query Q_phi for %s@.%a@.@."
                  (Shacl.Shape_syntax.print ~namespaces shape)
                  Sparql.Algebra.pp
                  (Provenance.To_sparql.neighborhood_query shape))
              shapes;
            Format.printf "# fragment query Q_S@.%a@." Sparql.Algebra.pp
              (Provenance.To_sparql.fragment_query shapes);
            0)
  in
  let doc =
    "Show the SPARQL queries of Proposition 5.3 and Corollary 5.5 generated \
     for the given request shapes."
  in
  Cmd.v
    (Cmd.info "to-sparql" ~doc)
    Term.(const run $ shape_exprs_arg $ prefix_arg)

(* ---------------- query -------------------------------------------- *)

let query_cmd =
  let query_arg =
    let doc = "SPARQL query text (SELECT / CONSTRUCT / ASK)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let run data prefixes query_src =
    wrap (fun () ->
        let namespaces = namespaces_of prefixes in
        let g = load_graph data in
        match Sparql.Parser.run_string ~namespaces g query_src with
        | Error e -> die "query: %a" Sparql.Parser.pp_error e
        | Ok (Sparql.Parser.Bindings rows) ->
            List.iter
              (fun row -> Format.printf "%a@." Sparql.Binding.pp row)
              rows;
            Format.printf "%d solution(s)@." (List.length rows);
            0
        | Ok (Sparql.Parser.Graph result) ->
            print_string (Rdf.Turtle.to_string ~prefixes:namespaces result);
            0
        | Ok (Sparql.Parser.Boolean b) ->
            Format.printf "%b@." b;
            0)
  in
  let doc = "Run a SPARQL query (the engine's supported subset) on a data graph." in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(const run $ data_arg $ prefix_arg $ query_arg)

(* ---------------- explain ------------------------------------------ *)

let explain_cmd =
  let run data shapes exprs prefixes node =
    wrap (fun () ->
        let namespaces = namespaces_of prefixes in
        let g = load_graph data in
        let schema = load_schema shapes in
        let v = parse_node namespaces node in
        match parse_shapes ~schema namespaces exprs with
        | [] -> die "explain requires at least one --shape"
        | shapes ->
            List.iter
              (fun shape ->
                Format.printf "shape: %s@."
                  (Shacl.Shape_syntax.print ~namespaces shape);
                match
                  Provenance.Annotated.explain_why_not ~schema g v shape
                with
                | None ->
                    Format.printf "%a conforms because:@.%a@.@." Rdf.Term.pp v
                      Provenance.Annotated.pp
                      (Provenance.Annotated.explain ~schema g v shape)
                | Some annotations ->
                    Format.printf "%a does not conform because:@.%a@.@."
                      Rdf.Term.pp v Provenance.Annotated.pp annotations)
              shapes;
            0)
  in
  let doc =
    "Per-triple explanation: each provenance triple with the constraints \
     that contributed it (why, or why-not on violation).  Shape references \
     resolve against --shapes."
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      const run $ data_arg $ shapes_arg $ shape_exprs_arg $ prefix_arg
      $ node_arg)

(* ---------------- serve -------------------------------------------- *)

let host_arg =
  let doc = "Address to bind (serve) or reach (request)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

(* "Resource exhausted": the server shed the request (still overloaded
   after every retry) — distinct from a runtime failure so scripts can
   back off and try later. *)
let exit_overloaded = 2

let serve_cmd =
  let port_arg =
    let doc = "TCP port to listen on; 0 picks an ephemeral port." in
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let port_file_arg =
    let doc =
      "Write the bound port to $(docv) once listening (removed on clean \
       shutdown) so scripts can use --port 0."
    in
    Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"FILE" ~doc)
  in
  let serve_jobs_arg =
    let doc =
      "Number of worker domains answering requests.  With --journal, \
       also the number of domains (at most the core count) that build \
       the incremental state at start-up and after recovery."
    in
    Arg.(value & opt pos_int_conv 4 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission-queue capacity: connections beyond the workers and this \
       many waiting requests are shed with a structured 'overloaded' reply."
    in
    Arg.(value & opt pos_int_conv 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let request_timeout_arg =
    let doc =
      "Per-request wall-clock cap in seconds; a request may only lower it \
       with its own 'timeout' field.  Keeps one pathological request from \
       starving the pool."
    in
    Arg.(
      value
      & opt (some pos_float_conv) (Some 30.0)
      & info [ "request-timeout" ] ~docv:"SECS" ~doc)
  in
  let request_fuel_arg =
    let doc = "Per-request evaluation-fuel cap (default: none)." in
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "request-fuel" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    let doc =
      "Graceful-shutdown drain deadline in seconds: on SIGINT/SIGTERM the \
       server stops accepting, answers queued and in-flight requests for \
       at most this long, then exits."
    in
    Arg.(value & opt pos_float_conv 5.0 & info [ "drain-timeout" ] ~docv:"SECS" ~doc)
  in
  let journal_arg =
    let doc =
      "Accept 'update' requests against a crash-recoverable write-ahead \
       journal in $(docv) (created if missing).  Each delta is appended \
       and fsynced before it is acknowledged; on startup the journal is \
       recovered (snapshot plus replay, a torn tail from a crash is \
       discarded) and the recovered graph supersedes the data file.  A \
       corrupt journal — damage before the tail — aborts startup with \
       its byte offset (exit 123)."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)
  in
  let fsync_conv =
    let parse s =
      match Runtime.Journal.policy_of_string s with
      | Ok p -> Ok p
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv ~docv:"POLICY" (parse, Runtime.Journal.pp_policy)
  in
  let fsync_arg =
    let doc =
      "Journal durability policy: $(b,always) (fsync every record — an \
       acknowledged update survives power loss), $(b,every:N) (fsync \
       every N records) or $(b,never) (leave flushing to the OS)."
    in
    Arg.(
      value
      & opt fsync_conv Runtime.Journal.Always
      & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let snapshot_every_arg =
    let doc =
      "Snapshot the graph and truncate the journal segment once it holds \
       $(docv) records, bounding replay time at the next startup."
    in
    Arg.(
      value & opt pos_int_conv 1024 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let run data shapes prefixes host port port_file jobs queue request_timeout
      request_fuel drain journal fsync snapshot_every =
    wrap (fun () ->
        let namespaces = namespaces_of prefixes in
        let graph = load_graph data in
        let schema = load_schema shapes in
        if shapes <> None then warn_schema schema;
        let graph, journal =
          match journal with
          | None -> graph, None
          | Some dir -> (
              match Runtime.Journal.recover ~policy:fsync dir with
              | exception Runtime.Journal.Corrupt { path; offset; reason } ->
                  die "journal corrupt: %s: byte offset %d: %s" path offset
                    reason
              | r ->
                  if r.fresh then begin
                    (* seed the journal so recovery no longer needs the
                       data file *)
                    Runtime.Journal.snapshot r.journal graph;
                    Format.printf
                      "shaclprov: journal initialized in %s (%d triples)@."
                      dir
                      (Rdf.Graph.cardinal graph);
                    graph, Some r.journal
                  end
                  else begin
                    Format.printf
                      "shaclprov: journal recovered from %s: seq %d, %d \
                       record(s) replayed%s, %d triples@."
                      dir r.last_seq r.replayed
                      (if r.discarded > 0 then
                         Printf.sprintf ", %d torn byte(s) discarded"
                           r.discarded
                       else "")
                      (Rdf.Graph.cardinal r.graph);
                    r.graph, Some r.journal
                  end)
        in
        let config =
          { Service.Server.default_config with
            host; port; port_file; jobs; queue_bound = queue;
            request_timeout; request_fuel; drain_timeout = drain;
            snapshot_every }
        in
        (* Install the stop handlers before the server publishes its
           port file: a SIGTERM sent the moment the file appears must
           still drain.  The handler only sets a flag; the wait loop
           below forwards it to the server. *)
        let signalled = Atomic.make false in
        let on_signal = Sys.Signal_handle (fun _ -> Atomic.set signalled true) in
        Sys.set_signal Sys.sigterm on_signal;
        Sys.set_signal Sys.sigint on_signal;
        let server =
          try Service.Server.start ~namespaces ?journal config ~schema ~graph
          with Unix.Unix_error (e, fn, _) ->
            die "cannot listen on %s:%d: %s: %s" host port fn
              (Unix.error_message e)
        in
        Format.printf "shaclprov: listening on %s:%d (%d worker(s), queue %d)@."
          host (Service.Server.port server) jobs queue;
        (* flush so scripts watching stdout (or the port file) can start *)
        Format.pp_print_flush Format.std_formatter ();
        while not (Atomic.get signalled) do
          (* sleep is interrupted by the signal; EINTR just rechecks *)
          try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Service.Server.request_stop server;
        match Service.Server.shutdown server with
        | `Drained ->
            let stats = Service.Server.stats server in
            Format.eprintf
              "shaclprov: drained; served %d, shed %d, failed %d, rejected \
               %d, %d worker crash(es)@."
              stats.Service.Wire.served stats.Service.Wire.shed
              stats.Service.Wire.failed stats.Service.Wire.rejected
              stats.Service.Wire.crashes;
            0
        | `Forced ->
            die "drain deadline (%gs) passed with requests still in flight"
              drain)
  in
  let doc =
    "Serve validation, shape fragments and neighborhoods over TCP: load \
     the data graph (and optionally a shapes graph) once, then answer \
     line-delimited JSON requests.  Overload is shed with structured \
     'overloaded' replies, crashed or over-budget requests get structured \
     'failed' replies (the worker domain is replaced), and SIGINT/SIGTERM \
     drain in-flight work before exiting."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ data_arg $ shapes_arg $ prefix_arg $ host_arg $ port_arg
      $ port_file_arg $ serve_jobs_arg $ queue_arg $ request_timeout_arg
      $ request_fuel_arg $ drain_arg $ journal_arg $ fsync_arg
      $ snapshot_every_arg)

(* ---------------- request ------------------------------------------ *)

(* Render an ok-class reply and return the process exit code. *)
let print_reply = function
  | Service.Wire.Validated { conforms; checks; violations } ->
      if conforms then begin
        Format.printf "conforms (%d checks)@." checks;
        0
      end
      else begin
        Format.printf "does not conform: %d violation(s) (%d checks)@."
          violations checks;
        1
      end
  | Service.Wire.Fragmented { turtle; _ } ->
      print_string turtle;
      0
  | Service.Wire.Neighborhoods { conforms; turtle } ->
      if conforms then Format.printf "conforms; neighborhood:@."
      else Format.printf "does not conform; why-not explanation:@.";
      print_string turtle;
      0
  | Service.Wire.Updated { seq; added; removed; dirty; rechecked; conforms } ->
      Format.printf
        "updated: seq %d, +%d/-%d triple(s), %d pair(s) dirty, %d \
         rechecked; %s@."
        seq added removed dirty rechecked
        (if conforms then "conforms" else "does not conform");
      0
  | Service.Wire.Healthy { uptime } ->
      Format.printf "ok, up %.3fs@." uptime;
      0
  | Service.Wire.Statistics s ->
      Format.printf
        "up %.3fs, %d worker(s), queue bound %d@.accepted %d, served \
         %d, shed %d, failed %d, rejected %d, dropped %d@.%d worker \
         crash(es), %d in flight, %d queued@."
        s.Service.Wire.uptime s.Service.Wire.jobs
        s.Service.Wire.queue_bound s.Service.Wire.accepted
        s.Service.Wire.served s.Service.Wire.shed s.Service.Wire.failed
        s.Service.Wire.rejected s.Service.Wire.dropped
        s.Service.Wire.crashes s.Service.Wire.in_flight
        s.Service.Wire.queued;
      (match s.Service.Wire.journal with
      | None -> ()
      | Some j ->
          Format.printf
            "journal: %d record(s), %d byte(s), %d fsync(s), seq %d, %d \
             dirty, %d rechecked@."
            j.Service.Wire.j_records j.Service.Wire.j_bytes
            j.Service.Wire.j_fsyncs j.Service.Wire.j_seq
            j.Service.Wire.j_dirty j.Service.Wire.j_rechecked);
      0
  | Service.Wire.Slept ms ->
      Format.printf "slept %dms@." ms;
      0
  | Service.Wire.(Overloaded _ | Failed _ | Error _) ->
      die "unexpected reply"  (* the client maps these to Error *)

(* The operation argument and its translation to a wire op. *)
let op_arg =
  let doc =
    "Operation: $(b,validate), $(b,fragment), $(b,neighborhood), \
     $(b,update), $(b,health), $(b,stats) or $(b,sleep) (diagnostic)."
  in
  Arg.(
    required
    & pos 0
        (some
           (enum
              [ "validate", `Validate; "fragment", `Fragment;
                "neighborhood", `Neighborhood; "update", `Update;
                "health", `Health; "stats", `Stats; "sleep", `Sleep ]))
        None
    & info [] ~docv:"OP" ~doc)

(* --add/--remove accept inline Turtle or @FILE indirection, since real
   deltas rarely fit comfortably on a command line. *)
let delta_side src =
  if String.length src > 1 && src.[0] = '@' then
    let path = String.sub src 1 (String.length src - 1) in
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> die "cannot read %s: %s" path msg
  else src

let wire_op ~shapes ~node ~ms ~add ~remove = function
  | `Validate -> Service.Wire.Validate
  | `Fragment -> Service.Wire.Fragment shapes
  | `Health -> Service.Wire.Health
  | `Stats -> Service.Wire.Stats
  | `Sleep -> Service.Wire.Sleep ms
  | `Neighborhood -> (
      match node, shapes with
      | Some node, [ shape ] -> Service.Wire.Neighborhood { node; shape }
      | _ -> die "neighborhood requires --node and exactly one --shape")
  | `Update ->
      let add = delta_side add and remove = delta_side remove in
      if add = "" && remove = "" then
        die "update requires --add and/or --remove";
      Service.Wire.Update { add; remove }

let node_opt_arg =
  let doc = "Focus node for $(b,neighborhood)." in
  Arg.(value & opt (some string) None & info [ "n"; "node" ] ~docv:"IRI" ~doc)

let ms_arg =
  let doc = "Milliseconds for the $(b,sleep) diagnostic op." in
  Arg.(value & opt pos_int_conv 100 & info [ "ms" ] ~docv:"MS" ~doc)

let add_arg =
  let doc =
    "Triples to add for $(b,update): a Turtle document, or $(b,@FILE) to \
     read one."
  in
  Arg.(value & opt string "" & info [ "add" ] ~docv:"TTL" ~doc)

let remove_arg =
  let doc =
    "Triples to remove for $(b,update): a Turtle document, or $(b,@FILE) \
     to read one."
  in
  Arg.(value & opt string "" & info [ "remove" ] ~docv:"TTL" ~doc)

let request_cmd =
  let req_port_arg =
    let doc = "Server TCP port." in
    Arg.(required & opt (some pos_int_conv) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let retries_arg =
    let doc =
      "Total attempts (including the first).  Transient failures — \
       connection errors, 'overloaded' and crashed-worker replies — are \
       retried with capped exponential backoff and full jitter; \
       deterministic failures are not."
    in
    Arg.(value & opt pos_int_conv 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_base_arg =
    let doc = "Backoff base delay in seconds." in
    Arg.(value & opt pos_float_conv 0.05 & info [ "retry-base" ] ~docv:"SECS" ~doc)
  in
  let retry_cap_arg =
    let doc = "Backoff delay cap in seconds." in
    Arg.(value & opt pos_float_conv 2.0 & info [ "retry-cap" ] ~docv:"SECS" ~doc)
  in
  let retry_deadline_arg =
    let doc =
      "Overall wall-clock cap in seconds across $(i,all) attempts and \
       backoff sleeps: once it passes, no further attempt is made and \
       the last error is reported, even if --retries remain.  Without \
       it a flapping server can hold the client for the full retries × \
       timeout budget."
    in
    Arg.(
      value
      & opt (some pos_float_conv) None
      & info [ "retry-deadline" ] ~docv:"SECS" ~doc)
  in
  let run op host port shapes node timeout fuel retries retry_base retry_cap
      retry_deadline ms add remove =
    wrap (fun () ->
        let op = wire_op ~shapes ~node ~ms ~add ~remove op in
        let request = Service.Wire.request ?timeout ?fuel op in
        let policy =
          Runtime.Retry.policy ~max_attempts:retries ~base_delay:retry_base
            ~cap_delay:retry_cap ()
        in
        match
          Service.Client.call ~policy ?deadline:retry_deadline ~host ~port
            request
        with
        | Ok reply -> print_reply reply
        | Error (Service.Client.Overloaded queued) ->
            Format.eprintf
              "shaclprov: still overloaded after %d attempt(s) (%d queued)@."
              retries queued;
            exit_overloaded
        | Error (Service.Client.Failed (reason, detail)) ->
            Format.eprintf "shaclprov: request failed (%s): %s@."
              (match reason with
              | Service.Wire.Timeout -> "timeout"
              | Service.Wire.Fuel -> "fuel"
              | Service.Wire.Crash -> "crash")
              detail;
            exit_degraded
        | Error e -> die "%a" Service.Client.pp_error e)
  in
  let doc =
    "Send one request to a running '$(b,shaclprov serve)' instance, with \
     retry, exponential backoff and jitter for transient failures.  \
     Exits 0 on success (1 for a non-conforming validate), 2 when the \
     server is still overloaded after every retry, 3 when the request \
     failed server-side (crash or budget), 123 on other errors."
  in
  Cmd.v
    (Cmd.info "request" ~doc)
    Term.(
      const run $ op_arg $ host_arg $ req_port_arg $ shape_exprs_arg
      $ node_opt_arg $ timeout_arg $ fuel_arg $ retries_arg $ retry_base_arg
      $ retry_cap_arg $ retry_deadline_arg $ ms_arg $ add_arg $ remove_arg)

(* ---------------- main --------------------------------------------- *)

let () =
  (* Test-only fault injection, configured via SHACLPROV_FAULT; a no-op
     when the variable is unset. *)
  Runtime.Fault.init_from_env ();
  let doc = "SHACL validation with data provenance (neighborhoods and shape fragments)" in
  let info = Cmd.info "shaclprov" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval_result'
       (Cmd.group info
          [ validate_cmd; lint_cmd; analyze_cmd; neighborhood_cmd;
            explain_cmd; fragment_cmd; query_cmd; to_sparql_cmd; serve_cmd;
            request_cmd ]))
