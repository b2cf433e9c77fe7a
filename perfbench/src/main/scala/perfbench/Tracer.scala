package perfbench

import scala.collection.mutable

import org.apache.logging.log4j.LogManager
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel

/** The layers the benchmark traces, in pipeline order. A span wraps the calls
  * into one layer's public functions and materializes that layer's output.
  */
object Spans {
  val All: Seq[String] = Seq(
    "perception", "association", "learn", "rank_tracks", "rank_bundles", "rank_model_errors", "baselines", "metrics")
  /** Spans whose layers use window functions that may run without a partition key. */
  val Windowed: Seq[String] = Seq("rank_tracks", "rank_bundles", "rank_model_errors", "baselines", "metrics")
}

/** Per-span totals of one traced repetition. Times are seconds, sizes bytes. */
final class SpanStats {
  var wallS = 0.0
  var windows = List.empty[(Long, Long)] // span intervals, epoch ms
  var jobs = 0L
  var tasks = 0L
  var usefulTasks = 0L
  var runMs = 0L
  var waitMs = 0L
  var shuffleBytes = 0L
  var spillBytes = 0L
  var resultBytes = 0L
  var rowsOut = 0L
  var globalWindows = 0L
  val taskIntervals = mutable.ArrayBuffer.empty[(Long, Long)] // epoch ms
  val usefulRunMs = mutable.ArrayBuffer.empty[Long]

  /** Span wall time during which no task of the span was running. */
  def idleS: Double = {
    val busyMs = windows.map { case (ws, we) =>
      val clipped = taskIntervals.iterator
        .map { case (s, e) => (math.max(s, ws), math.min(e, we)) }
        .filter { case (s, e) => e > s }.toSeq.sortBy(_._1)
      var covered = 0L
      var end = Long.MinValue
      clipped.foreach { case (s, e) =>
        if (e > end) { covered += e - math.max(s, end); end = e }
      }
      covered
    }.sum
    math.max(0.0, wallS - busyMs / 1000.0)
  }

  /** Slowest useful task over the median useful task (executor run time). */
  def taskSkew: Double =
    if (usefulRunMs.isEmpty) 0.0
    else {
      val sorted = usefulRunMs.sorted
      sorted.last.toDouble / math.max(1L, sorted(sorted.size / 2))
    }
}

/** How a workload marks its layers: `span` wraps the calls into one layer,
  * `keep` materializes a layer's output inside the current span.
  */
trait Trace {
  def span[T](name: String)(body: => T): T
  def keep[D <: Dataset[_]](d: D): D
}

/** Untraced: spans are plain calls and outputs stay lazy, as in the program. */
object NoTrace extends Trace {
  def span[T](name: String)(body: => T): T = body
  def keep[D <: Dataset[_]](d: D): D = d
}

/** Spans around layer calls, with Spark task metrics and log warnings summed
  * per span. Jobs are tagged with the active span through a local property,
  * and the listener attributes each stage's tasks to the span of the job
  * that submitted it.
  */
final class Tracer(sc: SparkContext) extends SparkListener with Trace {
  import Tracer.SpanKey

  @volatile private var active: String = null
  private val stageSpan = mutable.Map.empty[Int, String]
  private val leafStages = mutable.Set.empty[Int]
  private var stats = mutable.LinkedHashMap.empty[String, SpanStats]

  private def statsOf(span: String): SpanStats = stats.getOrElseUpdate(span, new SpanStats)

  /** Start a fresh repetition: drop the totals of the previous one. */
  def reset(): Unit = synchronized { stats = mutable.LinkedHashMap.empty; stageSpan.clear(); leafStages.clear() }

  /** Run `body` as (part of) the span `name`; nested spans are not supported. */
  def span[T](name: String)(body: => T): T = {
    require(active == null, s"span $name opened inside span $active")
    active = name
    sc.setLocalProperty(SpanKey, name)
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    try body
    finally {
      val wall = (System.nanoTime() - t0) / 1e9
      val endMs = System.currentTimeMillis()
      sc.setLocalProperty(SpanKey, null)
      active = null
      synchronized {
        val s = statsOf(name)
        s.wallS += wall
        s.windows ::= (startMs, endMs)
      }
    }
  }

  /** Cache `d` and count it, so its lazy work lands in the active span. */
  def keep[D <: Dataset[_]](d: D): D = {
    val name = active
    require(name != null, "keep outside a span")
    if (d.storageLevel == StorageLevel.NONE) d.cache()
    rows(name, d.count())
    d
  }

  private def rows(name: String, n: Long): Unit = synchronized { statsOf(name).rowsOut += n }

  /** Totals per span, after every Spark event of the repetition was delivered. */
  def snapshot(): Map[String, SpanStats] = {
    org.apache.spark.PerfbenchAccess.drainListenerBus(sc)
    synchronized(stats.toMap)
  }

  private[perfbench] def warning(message: String): Unit = {
    val span = active
    if (span != null && message.contains("No Partition Defined")) synchronized { statsOf(span).globalWindows += 1 }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).map(_.getProperty(SpanKey)).orNull
    if (span != null) synchronized {
      statsOf(span).jobs += 1
      e.stageInfos.foreach { si =>
        stageSpan(si.stageId) = span
        if (si.parentIds.isEmpty) leafStages += si.stageId
      }
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { span =>
      val s = statsOf(span)
      val info = e.taskInfo
      s.tasks += 1
      s.taskIntervals += ((info.launchTime, info.finishTime))
      Option(e.taskMetrics).foreach { m =>
        val read = m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
        val useful = read > 0 || leafStages.contains(e.stageId)
        s.runMs += m.executorRunTime
        val schedulerDelay = math.max(0L,
          info.duration - m.executorRunTime - m.executorDeserializeTime - m.resultSerializationTime)
        s.waitMs += schedulerDelay + m.executorDeserializeTime + m.shuffleReadMetrics.fetchWaitTime
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        s.spillBytes += m.diskBytesSpilled
        s.resultBytes += m.resultSize
        if (useful) { s.usefulTasks += 1; s.usefulRunMs += m.executorRunTime }
      }
    }
  }
}

object Tracer {
  val SpanKey = "perfbench.span"

  /** Install a tracer: register its listener and route WARN log events to it. */
  def install(spark: SparkSession): Tracer = {
    val t = new Tracer(spark.sparkContext)
    spark.sparkContext.addSparkListener(t)
    WarningCounter.target = t
    t
  }
}

/** Log appender that counts re-cache warnings and forwards WARN events to
  * the installed tracer, which attributes window warnings to the active span.
  */
object WarningCounter {
  @volatile var target: Tracer = null
  /** "Asked to cache already cached data" warnings since start-up. */
  val recache = new java.util.concurrent.atomic.AtomicLong

  /** Attach to the root logger, once; Spark's own log level is set by log4j2.properties. */
  def attach(): Unit = attached

  private lazy val attached: Unit = {
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val appender = new AbstractAppender("perfbench-warnings", null, null, true, Property.EMPTY_ARRAY) {
      override def append(event: LogEvent): Unit = {
        val message = event.getMessage.getFormattedMessage
        if (message.contains("already cached")) recache.incrementAndGet()
        val t = target
        if (t != null) t.warning(message)
      }
    }
    appender.start()
    ctx.getConfiguration.getRootLogger.addAppender(appender, org.apache.logging.log4j.Level.WARN, null)
    ctx.updateLoggers()
  }
}
