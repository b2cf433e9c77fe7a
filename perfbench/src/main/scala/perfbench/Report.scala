package perfbench

import java.io.{File, PrintWriter}

final case class Metric(name: String, unit: String, value: Double, samples: Int)

/** The metrics of one benchmark run, computed from its repetitions. */
final case class Report(
    w: Workload,
    args: Main.Args,
    setupS: Double,
    attempted: Seq[Rep],
    untraced: Seq[Rep],
    traced: Seq[Rep],
    scenes: Long,
    observations: Long,
) {
  import Report._

  val failed: Int = attempted.count(_.error.nonEmpty)
  private val wallS = median(untraced.map(_.wallS))
  private val failedRatio = Metric("failed_ratio", "ratio", failed.toDouble / attempted.size, attempted.size)

  /** What a user of the pipeline sees, from the warm untraced repetitions. */
  val endToEnd: Seq[Metric] = Seq(
    Metric("wall_s", "s", wallS, untraced.size),
    Metric("obs_per_s", "obs/s", observations / wallS, untraced.size),
    Metric("s_per_scene", "s", wallS / scenes, untraced.size),
    Metric("setup_s", "s", setupS, 1),
  )

  /** Per-layer totals of a traced repetition, as medians over the traced repetitions. */
  lazy val perLayer: Seq[Metric] = {
    def perSpan(span: String, name: String, unit: String)(f: SpanStats => Double) =
      Metric(s"$span.$name", unit, median(traced.map(r => f(r.spans.getOrElse(span, new SpanStats)))), traced.size)
    Spans.All.flatMap { s =>
      Seq(
        perSpan(s, "wall_s", "s")(_.wallS),
        perSpan(s, "task_s", "s")(_.runMs / 1e3),
        perSpan(s, "idle_s", "s")(_.idleS),
        perSpan(s, "wait_s", "s")(_.waitMs / 1e3),
        perSpan(s, "jobs", "count")(_.jobs.toDouble),
        perSpan(s, "tasks", "count")(_.tasks.toDouble),
        perSpan(s, "useful_task_ratio", "ratio")(st => if (st.tasks == 0) 0.0 else st.usefulTasks.toDouble / st.tasks),
        perSpan(s, "shuffle_mb", "MB")(_.shuffleBytes / 1e6),
        perSpan(s, "spill_mb", "MB")(_.spillBytes / 1e6),
        perSpan(s, "driver_mb", "MB")(_.resultBytes / 1e6),
        perSpan(s, "rows_out", "count")(_.rowsOut.toDouble),
      ) ++ (if (Spans.Windowed.contains(s)) Seq(perSpan(s, "global_windows", "count")(_.globalWindows.toDouble)) else Nil)
    } ++ Seq(
      perSpan("association", "task_skew", "ratio")(_.taskSkew),
      Metric("gc_s", "s", median(traced.map(_.gcS)), traced.size),
      Metric("cached_left_mb", "MB", median(untraced.map(_.cachedLeftMb)), untraced.size),
      Metric("recache_warnings", "count", median(untraced.map(_.recacheWarnings.toDouble)), untraced.size),
      Metric("tracing_overhead_s", "s", median(traced.map(_.wallS)) - wallS, traced.size),
    )
  }

  def metrics: Seq[Metric] = if (args.trace) perLayer else endToEnd

  /** The run's result, printed as the last line of stdout. */
  def resultLine: String = Json.obj(
    "correct" -> (failed == 0),
    "attempted" -> attempted.size,
    "failed" -> failed,
    "metrics" -> Json.Raw(Json.obj(metrics.map(m => m.name -> Json.Raw(Json.obj("value" -> m.value, "unit" -> m.unit))): _*)),
  )

  def printTable(): Unit = {
    println(f"workload ${w.name} seed ${args.seed} trace ${if (args.trace) 1 else 0}: " +
      f"$scenes scenes, $observations observations, ${attempted.size} repetitions, $failed failed")
    attempted.flatMap(_.error).distinct.foreach(e => println(s"  FAILED: $e"))
    (endToEnd ++ Seq(failedRatio) ++ (if (args.trace) perLayer else Nil)).foreach { m =>
      println(f"  ${m.name}%-36s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples}")
    }
  }

  /** The machine-readable record of the run: every metric with its unit,
    * workload, sample count and seed, and the traced per-layer table.
    */
  def write(dir: File): Unit = {
    dir.mkdirs()
    val trace = if (args.trace) 1 else 0
    val walls = untraced.map(_.wallS)
    val e2e = endToEnd ++ Seq(failedRatio) ++
      highPercentile(walls).map { case (p, v) => Metric(s"wall_s.p$p", "s", v, walls.size) }
    def rows(ms: Seq[Metric]) = ms.map(m => Json.Raw(Json.obj(
      "name" -> m.name, "unit" -> m.unit, "value" -> m.value, "samples" -> m.samples,
      "workload" -> w.name, "seed" -> args.seed)))
    def layers = Spans.All.map { s =>
      s -> Json.Raw(Json.obj(perLayer.filter(_.name.startsWith(s + ".")).map(m => m.name.stripPrefix(s + ".") -> m.value): _*))
    }
    val out = new PrintWriter(new File(dir, s"BENCH_${w.name}_seed${args.seed}_trace$trace.json"))
    try out.println(Json.obj(
      "workload" -> w.name, "seed" -> args.seed, "trace" -> trace, "seconds" -> args.seconds,
      "cores" -> w.cores, "scenes" -> scenes, "observations" -> observations,
      "attempted" -> attempted.size, "failed" -> failed,
      "failures" -> Json.Raw(Json.arr(attempted.flatMap(_.error).map(Json.str))),
      "wall_s_samples" -> Json.Raw(Json.arr(walls.map(Json.num))),
      "end_to_end" -> Json.Raw(Json.arr(rows(e2e).map(_.s))),
      "per_layer" -> Json.Raw(Json.arr(rows(if (args.trace) perLayer else Nil).map(_.s))),
      "layers" -> Json.Raw(if (args.trace) Json.obj(layers: _*) else "{}"),
    ))
    finally out.close()
  }
}

object Report {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest whole percentile with at least ten samples above it, if any. */
  def highPercentile(xs: Seq[Double]): Option[(Int, Double)] = {
    val s = xs.sorted
    (99 to 51 by -1).collectFirst {
      case p if s.size - math.ceil(p / 100.0 * s.size).toInt >= 10 => p -> s(math.ceil(p / 100.0 * s.size).toInt - 1)
    }
  }
}

/** Just enough JSON to write the benchmark's output. */
object Json {
  final case class Raw(s: String)

  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'           => "\\\""
      case '\\'          => "\\\\"
      case c if c < ' '  => f"\\u${c.toInt}%04x"
      case c             => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    d.toString
  }

  private def value(v: Any): String = v match {
    case Raw(s)     => s
    case s: String  => str(s)
    case b: Boolean => b.toString
    case i: Int     => i.toString
    case l: Long    => l.toString
    case d: Double  => num(d)
    case other      => throw new IllegalArgumentException(s"no JSON form for $other")
  }

  def obj(kvs: (String, Any)*): String = kvs.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
  def arr(vs: Seq[String]): String = vs.mkString("[", ", ", "]")
}
