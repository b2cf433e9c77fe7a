package perfbench

import java.io.File
import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession

import repro.perception.PerceptionData

/** Benchmark entry point; `perfbench/run.py` builds the classpath and calls it.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   --launched-at-ns <epoch ns>   when the benchmark process was started
  *   --out <dir>                   where the machine-readable record goes
  *
  * `Runner.WarmUpReps` warm-up repetitions run first; then repetitions run
  * for about `seconds`. Untraced (`--trace 0`) runs at least three and prints the
  * end-to-end metrics; traced (`--trace 1`) alternates untraced and traced
  * repetitions and prints the per-layer metrics. Every repetition's output is checked. The last stdout
  * line is one JSON object: correct, attempted, failed, metrics.
  */
object Main {

  final case class Args(
      workload: String = "",
      seed: Long = 0,
      seconds: Double = 10,
      trace: Boolean = false,
      launchedAtNs: Long = 0,
      out: Option[String] = None,
  )

  def parse(args: List[String], a: Args = Args()): Args = args match {
    case Nil                                => a
    case "--workload" :: v :: rest          => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest              => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest           => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: ("0" | "1") :: rest   => parse(rest, a.copy(trace = args(1) == "1")) // args(1) is the value
    case "--launched-at-ns" :: v :: rest    => parse(rest, a.copy(launchedAtNs = v.toLong))
    case "--out" :: v :: rest               => parse(rest, a.copy(out = Some(v)))
    case other :: _                         => throw new IllegalArgumentException(s"bad argument: $other")
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList)
    val workload = Workloads(args.workload, args.seed)
    val spark = Session.start(workload.cores)
    val setupS = (Clock.epochNs() - args.launchedAtNs) / 1e9
    require(args.launchedAtNs > 0 && setupS > 0, "--launched-at-ns must give the benchmark's start time")
    val report = Runner.run(workload, args, setupS)(spark)
    args.out.foreach(dir => report.write(new File(dir)))
    report.printTable()
    println(report.resultLine)
    spark.stop()
    System.exit(0)
  }
}

object Clock {
  /** Wall clock in epoch nanoseconds, comparable across processes. */
  def epochNs(): Long = {
    val now = java.time.Instant.now()
    now.getEpochSecond * 1000000000L + now.getNano
  }
  def gcSeconds(): Double = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3
}

object Session {
  /** Generated classes Spark keeps compiled. One repetition generates about
    * 250 distinct classes on apps-1core and 180 on dense; Spark's default of
    * 100 would evict them within a repetition, so every "warm" repetition
    * would compile them again with Janino and the JIT. A program job runs one
    * pipeline once and compiles each class once, as the cold warm-up does here.
    */
  val CodegenCacheEntries = 4096

  /** Local Spark as the program's jobs configure it, then one trivial job.
    * Spark's files go under the `perfbench.workdir` directory. The codegen
    * cache is the one departure, so that warm repetitions are warm.
    */
  def start(cores: Int): SparkSession = {
    WarningCounter.attach()
    val threads = math.min(cores, Runtime.getRuntime.availableProcessors())
    val workdir = new File(sys.props.getOrElse("perfbench.workdir", "target/spark")).getAbsoluteFile
    val spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.codegen.cache.maxEntries", CodegenCacheEntries)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", new File(workdir, "local").getPath)
      .config("spark.sql.warehouse.dir", new File(workdir, "warehouse").getPath)
      .getOrCreate()
    spark.range(1).count()
    spark
  }
}

/** One repetition: its wall time, the reason its output is wrong (if it is),
  * and what it left behind.
  */
final case class Rep(wallS: Double, error: Option[String], gcS: Double, cachedLeftMb: Double,
    recacheWarnings: Long, spans: Map[String, SpanStats])

object Runner {
  /** The first repetition is cold and the second still runs about 30% slower
    * than the ones after it, while the JIT catches up; neither is timed.
    */
  val WarmUpReps = 2
  val MinReps = 3

  def run(w: Workload, args: Main.Args, setupS: Double)(implicit spark: SparkSession): Report = {
    val tracer = if (args.trace) Some(Tracer.install(spark)) else None
    val attempted = ArrayBuffer.empty[Rep]
    def untraced(): (Rep, Option[w.Result]) = { val r = rep(w, None); attempted += r._1; r }

    for (_ <- 1 to WarmUpReps) untraced() // checked and counted, not timed
    val untracedReps = ArrayBuffer.empty[Rep]
    val tracedReps = ArrayBuffer.empty[Rep]
    // Report the median of at least MinReps, and repeat while the next
    // repetition, as long as the last one, still ends within `seconds`.
    val start = System.nanoTime()
    var last = 0.0
    do {
      val t0 = System.nanoTime()
      val (u, uResult) = untraced()
      untracedReps += u
      tracer.foreach { t =>
        val (tr, tResult) = rep(w, Some(t))
        val mismatch = for (a <- uResult; b <- tResult; m <- w.sameResult(a, b)) yield m
        val checked = if (tr.error.isEmpty) tr.copy(error = mismatch) else tr
        attempted += checked
        tracedReps += checked
      }
      last = (System.nanoTime() - t0) / 1e9
    } while (untracedReps.size < MinReps && !args.trace || (System.nanoTime() - start) / 1e9 + last <= args.seconds)

    val counts = w.inputs.distinct.map(s => s -> PerceptionData.observations(s).count()).toMap
    Report(w, args, setupS, attempted.toSeq, untracedReps.toSeq, tracedReps.toSeq,
      scenes = w.inputs.map(_.nScenes.toLong).sum, observations = w.inputs.map(counts).sum)
  }

  /** Run one repetition from a fresh Spark cache; check it outside the timing. */
  def rep(w: Workload, tracer: Option[Tracer])(implicit spark: SparkSession): (Rep, Option[w.Result]) = {
    spark.catalog.clearCache()
    System.gc()
    tracer.foreach(_.reset())
    val gc0 = Clock.gcSeconds()
    val recache0 = WarningCounter.recache.get()
    val t0 = System.nanoTime()
    val result = Try(tracer.fold(w.run)(t => w.runTraced(t)))
    val wall = (System.nanoTime() - t0) / 1e9
    val gc = Clock.gcSeconds() - gc0
    val recache = WarningCounter.recache.get() - recache0
    val cachedLeft = spark.sparkContext.getExecutorMemoryStatus.values.map { case (max, free) => max - free }.sum / 1e6
    val spans = tracer.fold(Map.empty[String, SpanStats])(_.snapshot())
    val error = result match {
      case Failure(e) => Some(s"threw $e")
      case Success(r) => Try(w.check(r)).fold(e => Some(s"check threw $e"), identity)
    }
    (Rep(wall, error, gc, cachedLeft, recache, spans), result.toOption)
  }
}
