package perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.baselines.{ModelAssertions, Uncertainty}
import repro.core._
import repro.eval.Experiments.{recallExperiment, missingObsExperiment, modelErrorsExperiment}
import repro.eval.Experiments.{MissingObsResult, ModelErrorsResult, RecallResult}
import repro.eval.Metrics
import repro.perception.{DatasetSpec, PerceptionData, TruthRow}

/** One benchmark workload. `run` is the untraced repetition; `runTraced`
  * drives the same work through the layers' public functions inside spans and
  * must return an equal result. `check` runs outside the timed region.
  */
sealed abstract class Workload(val name: String, val cores: Int) {
  type Result
  /** Every dataset one repetition generates and processes, once per use. */
  def inputs: Seq[DatasetSpec]
  def run(implicit spark: SparkSession): Result
  def runTraced(t: Trace)(implicit spark: SparkSession): Result
  /** Why `r` is wrong, if it is. */
  def check(r: Result): Option[String]
  /** Why a traced result differs from an untraced one, if it does. */
  def sameResult(untraced: Result, traced: Result): Option[String] =
    if (untraced == traced) None else Some(s"traced result $traced differs from untraced $untraced")
}

object Workloads {
  val Names: Seq[String] = Seq("apps-1core", "dense")

  def apply(name: String, seed: Long): Workload = name match {
    case "apps-1core" => new Apps(Apps.PaperSpecs, Apps.Expected)
    case "dense"      => Dense(seed, Dense.Full)
    case other        => throw new IllegalArgumentException(s"unknown workload $other; expected one of ${Names.mkString(", ")}")
  }

  private[perfbench] val cfg = FixyConfig()

  /** The evaluation scenes with missing tracks, as `Experiments` finds them. */
  private[perfbench] def scenesWithMissing(truth: Dataset[TruthRow]): Seq[Long] =
    truth.toDF().where(col("kind") === "object" && col("missingTrack"))
      .select("scene").distinct().collect().map(_.getLong(0)).toSeq.sorted

  private[perfbench] def unpersistAll(ds: Dataset[_]*): Unit = ds.foreach(_.unpersist())
}

import Workloads.{cfg, scenesWithMissing, unpersistAll}

/** §8.2 recall, §8.3 and §8.4 on one core: the only workload that runs the
  * bundle and model-error rankers, the §8.4 assertions and uncertainty sampling.
  */
final class Apps(specs: Apps.Specs, expected: Apps.Result) extends Workload("apps-1core", 1) {
  type Result = Apps.Result

  def inputs: Seq[DatasetSpec] =
    Seq(specs.train, specs.audit, specs.train, specs.missingObs, specs.train, specs.modelErrors)

  def run(implicit spark: SparkSession): Apps.Result = {
    require(specs == Apps.PaperSpecs, "the untraced apps-1core run exists only at the paper presets")
    Apps.Result(recallExperiment, missingObsExperiment, modelErrorsExperiment)
  }

  def runTraced(t: Trace)(implicit spark: SparkSession): Apps.Result =
    Apps.Result(recall(t), missingObs(t), modelErrors(t))

  def check(r: Apps.Result): Option[String] =
    if (r == expected) None else Some(s"apps-1core result $r differs from the expected $expected")

  /** Learn on the training split and associate `evalObs`, as each runner does. */
  private def learnAndTrack(t: Trace, evalObs: => Dataset[Obs])(implicit spark: SparkSession) = {
    val (trainObs, obs) = t.span("perception") {
      (t.keep(PerceptionData.observations(specs.train)), t.keep(evalObs))
    }
    val learned = t.span("learn")(Fixy.learn(trainObs, cfg))
    val tracked = t.span("association")(t.keep(Association.assignTracks(obs, cfg.assoc)))
    unpersistAll(trainObs, obs)
    (learned, tracked)
  }

  private def recall(t: Trace)(implicit spark: SparkSession): RecallResult = {
    val (learned, tracked) = learnAndTrack(t, PerceptionData.observations(specs.audit))
    val truth = t.span("perception")(t.keep(PerceptionData.truth(specs.audit)))
    try {
      val ranked = t.span("rank_tracks")(t.keep(Fixy.rankMissingTracks(tracked, learned, cfg)))
      val (found, total) = t.span("metrics")(Metrics.recallPerClassTopK(ranked, tracked, truth, k = 10))
      ranked.unpersist()
      RecallResult(found, total)
    } finally unpersistAll(tracked, truth)
  }

  private def missingObs(t: Trace)(implicit spark: SparkSession): MissingObsResult = {
    val spec = specs.missingObs
    val (learned, tracked) = learnAndTrack(t, PerceptionData.observations(spec))
    val truth = t.span("perception")(t.keep(PerceptionData.truth(spec)))
    try {
      val ranked = t.span("rank_bundles") {
        t.keep(Fixy.rankMissingObservations(tracked, learned, cfg)
          .withColumn("grank", row_number().over(Window.orderBy(desc("score"), col("bundleId"))))
          .cache())
      }
      t.span("metrics") {
        val good = truth.toDF().where(col("missingObsKind") === "good")
          .select("trueId", "missingObsFrames").collect()
        require(good.length == 1, s"expected exactly one good injected missing obs, got ${good.length}")
        val bundleMaj = tracked.toDF().groupBy("bundleId").agg(min("trueId").as("bTrueId"))
        val goodRanked = ranked.join(bundleMaj, Seq("bundleId"))
          .where(col("bTrueId") === good(0).getLong(0) && col("frame") === good(0).getSeq[Int](1).head)
          .select("grank").collect()
        require(goodRanked.nonEmpty, "good missing observation did not survive as a candidate bundle")
        val result = MissingObsResult(goodRanked.map(_.getInt(0).toLong).min, ranked.count())
        ranked.unpersist()
        result
      }
    } finally unpersistAll(tracked, truth)
  }

  private def modelErrors(t: Trace)(implicit spark: SparkSession): ModelErrorsResult = {
    import spark.implicits._
    val (learned, tracked) =
      learnAndTrack(t, PerceptionData.observations(specs.modelErrors).filter(_.source == Sources.Model))
    try {
      val (flagged, unc) = t.span("baselines") {
        (ModelAssertions.allFlagged(tracked, appearMinObs = 4), t.keep(Uncertainty.rankTracks(tracked)))
      }
      val fixyRanked = t.span("rank_model_errors") {
        t.keep(Fixy.rankModelErrors(tracked, learned, cfg, excludedTrackIds = flagged))
      }
      t.span("metrics") {
        val fixy = Metrics.labelModelErrorProposals(fixyRanked, tracked).cache()
        val uncLabeled = Metrics.labelModelErrorProposals(unc, tracked)
        def globalP10(labeled: DataFrame): Double = {
          val top = labeled.where(col("rank") <= 10)
          val n = top.count()
          if (n == 0) 0.0 else top.where(col("isError")).count().toDouble / math.min(10L, n)
        }
        val maxConf = fixy.where(col("rank") <= 10 && col("isError"))
          .agg(max("maxConf")).collect()(0) match {
          case r if r.isNullAt(0) => 0.0
          case r                  => r.getDouble(0)
        }
        val result = ModelErrorsResult(globalP10(fixy), globalP10(uncLabeled), maxConf)
        unpersistAll(fixy, fixyRanked, unc)
        result
      }
    } finally tracked.unpersist()
  }
}

object Apps {
  final case class Specs(train: DatasetSpec, audit: DatasetSpec, missingObs: DatasetSpec, modelErrors: DatasetSpec)
  final case class Result(recall: RecallResult, missingObs: MissingObsResult, modelErrors: ModelErrorsResult)

  val PaperSpecs: Specs = Specs(
    PerceptionData.internalTrain, PerceptionData.internalAudit,
    PerceptionData.missingObsSim, PerceptionData.modelErrorSim)

  /** The seed's §8.2 recall, §8.3 and §8.4 numbers (EXPERIMENTS.md), exactly. */
  val Expected: Result = Result(
    RecallResult(17, 24),
    MissingObsResult(1, 14),
    ModelErrorsResult(1.0, 0.5, 0.9690101217263737),
  )
}

/** The missing-track application on few large scenes: the Lyft presets at 4×
  * per-scene density, with generator seeds taken from the benchmark seed.
  */
final class Dense(val train: DatasetSpec, val eval: DatasetSpec) extends Workload("dense", 4) {
  type Result = Dense.Result

  def inputs: Seq[DatasetSpec] = Seq(train, eval)

  def run(implicit spark: SparkSession): Dense.Result = runTraced(NoTrace)

  def runTraced(t: Trace)(implicit spark: SparkSession): Dense.Result = {
    val (trainObs, evalObs, truth) = t.span("perception") {
      (t.keep(PerceptionData.observations(train)), t.keep(PerceptionData.observations(eval)),
        t.keep(PerceptionData.truth(eval)))
    }
    val learned = t.span("learn")(Fixy.learn(trainObs, cfg))
    val tracked = t.span("association")(t.keep(Association.assignTracks(evalObs, cfg.assoc).cache()))
    try {
      val ranked = t.span("rank_tracks")(t.keep(Fixy.rankMissingTracks(tracked, learned, cfg).cache()))
      val conf = t.span("baselines")(t.keep(ModelAssertions.consistency(tracked, "conf", cfg.minTrackObs)))
      t.span("metrics") {
        val scenes = scenesWithMissing(truth)
        val scores = ranked.select("trackId", "score").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
        def p10(r: DataFrame) = Metrics.precisionAtK(Metrics.labelMissingTrackProposals(r, tracked, truth), scenes, 10)
        val result = Dense.Result(learned, scores, p10(ranked), p10(conf))
        unpersistAll(ranked, conf)
        result
      }
    } finally unpersistAll(trainObs, evalObs, truth, tracked)
  }

  /** The evaluation scenes' model-only tracks with at least `minTrackObs`
    * observations, rebuilt on the driver with the pure per-scene association.
    */
  lazy val referenceTracks: Map[Long, Loa.Track] =
    (0L until eval.nScenes).flatMap { i =>
      val tracked = Association.assignScene(PerceptionData.genScene(eval, i)._2, cfg.assoc)
      Loa.fromTracked(tracked).flatMap(_.tracks)
    }.filter(t => !t.hasSource(Sources.Human) && t.nObs >= cfg.minTrackObs)
      .map(t => t.trackId -> t).toMap

  def check(r: Dense.Result): Option[String] = Dense.checkScores(r, referenceTracks)

  override def sameResult(untraced: Dense.Result, traced: Dense.Result): Option[String] =
    if (untraced.fixyP10 != traced.fixyP10 || untraced.maConfP10 != traced.maConfP10)
      Some(s"traced precision (${traced.fixyP10}, ${traced.maConfP10}) differs from untraced " +
        s"(${untraced.fixyP10}, ${untraced.maConfP10})")
    else if (untraced.scores.keySet != traced.scores.keySet) Some("traced run ranked other tracks than the untraced run")
    else untraced.scores.collectFirst {
      case (id, s) if math.abs(s - traced.scores(id)) > Dense.Tolerance =>
        s"track $id: traced score ${traced.scores(id)} differs from untraced $s"
    }
}

object Dense {
  final case class Result(learned: LearnedModel, scores: Map[Long, Double], fixyP10: Double, maConfP10: Double)
  final case class Size(scenes: Int, objects: Int, ghosts: Int)

  val Full: Size = Size(scenes = 2, objects = 160, ghosts = 208)
  val Tolerance = 1e-9

  def apply(seed: Long, size: Size): Dense = {
    def spec(name: String, s: Long) = PerceptionData.lyftTrain.copy(
      name = name, nScenes = size.scenes, seed = s, objectsPerScene = size.objects, ghostsPerScene = size.ghosts)
    new Dense(spec("dense-train", 2 * seed + 1), spec("dense-eval", 2 * seed + 2))
  }

  /** Every ranked track's score must equal Eq. 2 over its compiled factor
    * graph (`FactorGraph` over `Fixy.driverFeatures`), and exactly the
    * candidate tracks must be ranked.
    */
  def checkScores(r: Result, reference: Map[Long, Loa.Track]): Option[String] = {
    val features = Fixy.driverFeatures(r.learned, cfg)
    if (r.scores.keySet != reference.keySet)
      Some(s"ranked ${r.scores.size} tracks, expected the ${reference.size} model-only candidate tracks")
    else r.scores.iterator.map { case (id, s) => (id, s, FactorGraph.compileTrack(reference(id), features).score) }
      .collectFirst { case (id, s, ref) if !(math.abs(s - ref) <= Tolerance) => s"track $id: score $s, reference $ref" }
  }
}
