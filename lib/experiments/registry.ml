(* Experiment registry: id -> printer. Shared by `bin/ltrim experiments`
   and the benchmark harness. Order follows the paper. *)

type entry = {
  id : string;
  description : string;
  print : unit -> string;
  csv : (unit -> string) option;  (* machine-readable rows, when structured *)
}

let all : entry list =
  [ { id = "fig1"; description = "cold/warm phase breakdown (resnet)";
      print = Fig1.print; csv = Some Fig1.csv };
    { id = "table1"; description = "benchmarked applications";
      print = Table1.print; csv = Some Table1.csv };
    { id = "fig2"; description = "billed duration and cost of cold starts";
      print = Fig2.print; csv = Some Fig2.csv };
    { id = "fig8"; description = "lambda-trim latency/memory/cost improvements";
      print = Fig8.print; csv = Some Fig8.csv };
    { id = "table2"; description = "comparison with FaaSLight and Vulture";
      print = Table2.print; csv = Some Table2.csv };
    { id = "fig9"; description = "scoring-method ablation"; print = Fig9.print; csv = Some Fig9.csv };
    { id = "table3"; description = "debloating time and attribute counts";
      print = Table3.print; csv = Some Table3.csv };
    { id = "fig10"; description = "varying K"; print = Fig10.print; csv = Some Fig10.csv };
    { id = "fig11"; description = "warm-start impact"; print = Fig11.print; csv = Some Fig11.csv };
    { id = "fig12"; description = "comparison with checkpoint/restore";
      print = Fig12.print; csv = Some Fig12.csv };
    { id = "fig13"; description = "SnapStart cost share CDF (Azure trace)";
      print = Fig13.print; csv = Some Fig13.csv };
    { id = "fig14"; description = "24h SnapStart cost simulation";
      print = Fig14.print; csv = Some Fig14.csv };
    { id = "table4"; description = "fallback overhead"; print = Table4.print; csv = Some Table4.csv };
    { id = "lazy";
      description =
        "three-way optimizer comparison: DD vs lazy loading vs combined";
      print = Lazy_exp.print; csv = Some Lazy_exp.csv };
    { id = "fleet";
      description = "fleet simulation: cost/p99 vs arrival rate and policy";
      print = Fleet_exp.print; csv = Some Fleet_exp.csv };
    { id = "trace-replay";
      description =
        "1M-request Azure-trace replay on the sharded streaming engine";
      print = Trace_replay.print; csv = Some Trace_replay.csv };
    { id = "resilience";
      description =
        "availability/amplification/cost under faults x resilience policy";
      print = Resilience_exp.print; csv = Some Resilience_exp.csv };
    { id = "durability";
      description =
        "crash/resume journal sweep: kill after record N, resume, compare";
      print = Durability.print; csv = Some Durability.csv };
    { id = "incremental";
      description =
        "incremental re-debloating: warm vs cold over a synthetic history";
      print = Incremental.print; csv = Some Incremental.csv };
    { id = "abl-granularity";
      description = "attribute vs statement granularity ablation";
      print = Ablations.print_granularity; csv = None };
    { id = "abl-protection";
      description = "PyCG protection query-savings ablation";
      print = Ablations.print_protection; csv = None };
    { id = "abl-parallel";
      description = "parallel DD measured multicore speedup ablation";
      print = Ablations.print_parallel; csv = None };
    { id = "abl-continuous";
      description = "continuous debloating query-savings ablation";
      print = Ablations.print_continuous; csv = None };
    { id = "abl-bursts";
      description = "bursty scale-out cost ablation (concurrent pool)";
      print = Ablations.print_bursts; csv = None };
    { id = "abl-providers";
      description = "provider billing-granularity ablation";
      print = Ablations.print_providers; csv = None } ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let ids = List.map (fun e -> e.id) all
