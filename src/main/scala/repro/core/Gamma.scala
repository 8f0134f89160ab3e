package repro.core

import repro.embed.Embeddings

/** Calibration of the merge threshold γ (paper §II-C).
  *
  * The paper sets γ to the mean cosine similarity of a 17K-pair WordNet
  * synonym list under the pre-trained model used for merging
  * (Wikipedia2Vec → γ = 0.57). We apply the same procedure to our
  * "pretrained" model and synthetic synonym list.
  */
object Gamma {

  /** Mean cosine similarity over synonym pairs found in the model's
    * vocabulary; `default` when no pair is covered.
    */
  def calibrate(
      synonyms: Seq[(String, String)],
      vectors: Map[String, Array[Float]],
      default: Double = 0.57): Double = {
    val sims = synonyms.flatMap { case (a, b) =>
      for (va <- vectors.get(a); vb <- vectors.get(b)) yield Embeddings.cosine(va, vb)
    }
    if (sims.isEmpty) default else sims.sum / sims.size
  }
}
