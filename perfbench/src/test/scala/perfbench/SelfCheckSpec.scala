package perfbench

import java.io.File

import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods
import org.scalatest.funsuite.AnyFunSuite

import repro.perception.PerceptionData

/** The benchmark's own checks, at tiny input sizes: every metric that
  * BENCHMARK.json names is emitted with its unit, and the output checks
  * reject wrong results. Run with `sbt test` in perfbench/.
  */
class SelfCheckSpec extends AnyFunSuite {

  private implicit lazy val spark: SparkSession = Session.start(cores = 2)

  private val tinyDense = Dense(seed = 7, Dense.Size(scenes = 1, objects = 24, ghosts = 20))

  private val tinyApps = new Apps(
    Apps.Specs(
      PerceptionData.internalTrain.copy(nScenes = 2, objectsPerScene = 12, ghostsPerScene = 8),
      PerceptionData.internalAudit.copy(objectsPerScene = 12, ghostsPerScene = 8),
      PerceptionData.missingObsSim.copy(nScenes = 1, objectsPerScene = 12),
      PerceptionData.modelErrorSim.copy(nScenes = 1, objectsPerScene = 12, ghostsPerScene = 8)),
    Apps.Expected)

  /** (name, unit) of each metric in one section of BENCHMARK.json. */
  private def declared(section: String): Seq[(String, String)] = {
    implicit val formats: Formats = DefaultFormats
    val json = JsonMethods.parse(new File("../BENCHMARK.json"))
    (json \ section).extract[Seq[Map[String, Any]]].map(m => m("name").toString -> m("unit").toString)
  }

  private def args(trace: Boolean) =
    Main.Args(workload = "dense", seconds = 0, trace = trace)

  test("every end-to-end and per-layer metric is emitted with its unit") {
    val untraced = Runner.run(tinyDense, args(trace = false), setupS = 3.0)
    assert(untraced.failed == 0, untraced.attempted.flatMap(_.error))
    assert(untraced.endToEnd.map(m => m.name -> m.unit) == declared("end_to_end"))
    assert(untraced.endToEnd.find(_.name == "setup_s").get.value == 3.0)

    val traced = Runner.run(tinyDense, args(trace = true), setupS = 3.0)
    assert(traced.failed == 0, traced.attempted.flatMap(_.error))
    assert(traced.perLayer.map(m => m.name -> m.unit) == declared("per_layer"))
    val line = JsonMethods.parse(traced.resultLine)
    assert((line \ "correct") == JBool(true))
    declared("per_layer").foreach { case (name, unit) => assert(line \ "metrics" \ name \ "unit" == JString(unit)) }
  }

  test("the apps-1core replica touches every layer at a tiny size") {
    val tracer = Tracer.install(spark)
    tinyApps.runTraced(tracer)
    val spans = tracer.snapshot()
    Spans.All.foreach { s => assert(spans.get(s).exists(_.jobs > 0), s"span $s ran no Spark job") }
    assert(spans("rank_model_errors").globalWindows > 0, "rankModelErrors' global window was not counted")
  }

  test("a wrong expected value fails every repetition") {
    val wrong = Apps.Expected.copy(recall = Apps.Expected.recall.copy(found = 18))
    val report = Runner.run(new Apps(Apps.PaperSpecs, wrong), args(trace = false), setupS = 3.0)
    assert(report.attempted.nonEmpty)
    assert(report.failed == report.attempted.size)
  }

  test("the dense reference check rejects a perturbed score") {
    val result = tinyDense.run
    assert(tinyDense.check(result).isEmpty)
    val (id, score) = result.scores.head
    assert(tinyDense.check(result.copy(scores = result.scores.updated(id, score + 1e-6))).nonEmpty)
    assert(tinyDense.check(result.copy(scores = result.scores - id)).nonEmpty)
  }
}
